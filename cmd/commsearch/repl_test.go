package main

import (
	"strings"
	"testing"

	"commdb"
)

func runReplScript(t *testing.T, script string) string {
	t.Helper()
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := repl(g, s, 8, commdb.Limits{}, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestReplStopReason: a query stopped by its budget reports why instead
// of silently ending output like an exhausted one.
func TestReplStopReason(t *testing.T) {
	out := runReplScript(t, "timeout 1ns\nq a b c\nquit\n")
	if !strings.Contains(out, "timeout = 1ns") {
		t.Fatalf("timeout echo missing:\n%s", out)
	}
	if !strings.Contains(out, "stopped early: deadline exceeded") {
		t.Fatalf("stop reason missing:\n%s", out)
	}
	if strings.Contains(out, "(query exhausted)") {
		t.Fatalf("a stopped query must not report exhaustion:\n%s", out)
	}
	// Bad duration is rejected.
	out = runReplScript(t, "timeout wat\nquit\n")
	if !strings.Contains(out, "bad duration") {
		t.Fatalf("bad duration not rejected:\n%s", out)
	}
}

func TestReplQueryAndMore(t *testing.T) {
	out := runReplScript(t, "q a b c\nmore 2\nquit\n")
	if !strings.Contains(out, "#1 cost=7.000") {
		t.Fatalf("missing rank 1:\n%s", out)
	}
	// 5 shown initially, more 2 exhausts at 5 total.
	if !strings.Contains(out, "#5 cost=15.000") {
		t.Fatalf("missing rank 5:\n%s", out)
	}
	if !strings.Contains(out, "(query exhausted)") {
		t.Fatalf("missing exhaustion notice:\n%s", out)
	}
}

func TestReplCostAndRmax(t *testing.T) {
	out := runReplScript(t, "cost max\nq a b c\nquit\n")
	if !strings.Contains(out, "#1 cost=4.000") {
		t.Fatalf("max-cost rank 1 missing:\n%s", out)
	}
	out = runReplScript(t, "rmax 4\nq a b c\nquit\n")
	if !strings.Contains(out, "rmax = 4") {
		t.Fatalf("rmax echo missing:\n%s", out)
	}
}

func TestReplTreesAndKwf(t *testing.T) {
	out := runReplScript(t, "trees a b\nkwf c\nquit\n")
	if !strings.Contains(out, "tree 1") {
		t.Fatalf("trees output missing:\n%s", out)
	}
	if !strings.Contains(out, "30.7692%") {
		t.Fatalf("kwf output missing:\n%s", out)
	}
}

func TestReplErrorsAndHelp(t *testing.T) {
	out := runReplScript(t, "help\nmore\nq\nrmax x\ncost wat\nbogus\nquit\n")
	for _, want := range []string{
		"lists commands", "no active query", "usage: q", "bad radius",
		"usage: cost", "unknown command",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSplitKeywords(t *testing.T) {
	got := splitKeywords(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("splitKeywords = %v", got)
	}
	if splitKeywords("") != nil {
		t.Fatal("empty input should yield nil")
	}
}

func TestLoadGraphModes(t *testing.T) {
	if _, err := loadGraph("", ""); err == nil {
		t.Fatal("no source should error")
	}
	if _, err := loadGraph("x", "paper"); err == nil {
		t.Fatal("both sources should error")
	}
	g, err := loadGraph("", "paper")
	if err != nil || g.NumNodes() != 13 {
		t.Fatalf("paper example: %v", err)
	}
	g, err = loadGraph("", "intro")
	if err != nil || g.NumNodes() != 5 {
		t.Fatalf("intro example: %v", err)
	}
	if _, err := loadGraph("/nonexistent/file", ""); err == nil {
		t.Fatal("missing file should error")
	}
}
