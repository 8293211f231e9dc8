package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"commdb"
	"commdb/internal/obs"
	"commdb/internal/server"
	"commdb/internal/snapshot"
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

// TestReplMem: the mem command prints the searcher's exact footprint
// breakdown — the same accounting the server serves at /debug/memz.
func TestReplMem(t *testing.T) {
	out := runReplScript(t, "mem\nquit\n")
	for _, want := range []string{"searcher", "graph", "dict", "KiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mem output missing %q:\n%s", want, out)
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

// TestReplSlowlog: 'slowlog' renders the session's capture ring — the
// healthy query, the budget-stopped one (always retained), and the
// per-class aggregate rows.
func TestReplSlowlog(t *testing.T) {
	out := runReplScript(t, "q a b c\ntimeout 1ns\nq a b\nslowlog\nquit\n")
	if !strings.Contains(out, "slow-query log: 2 observed, 2 retained") {
		t.Fatalf("slowlog header missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "repl-1") || !strings.Contains(out, "repl-2") {
		t.Fatalf("slowlog missing query records:\n%s", out)
	}
	if !strings.Contains(out, "kept=[slow]") {
		t.Fatalf("healthy query not in the slow pool:\n%s", out)
	}
	if !strings.Contains(out, "errored") || !strings.Contains(out, "stopped: deadline exceeded") {
		t.Fatalf("stopped query not retained as errored:\n%s", out)
	}
	if !strings.Contains(out, "class kw3/") || !strings.Contains(out, "class kw2/") {
		t.Fatalf("per-class rows missing:\n%s", out)
	}
	// Help advertises the command.
	if help := runReplScript(t, "help\nquit\n"); !strings.Contains(help, "slowlog") {
		t.Fatalf("help does not mention slowlog:\n%s", help)
	}
}

// TestReplSlowlogEmpty: slowlog before any query is a clean no-op.
func TestReplSlowlogEmpty(t *testing.T) {
	out := runReplScript(t, "slowlog\nquit\n")
	if !strings.Contains(out, "slow-query log: 0 observed, 0 retained, 0 SLO breaches") {
		t.Fatalf("empty slowlog header wrong:\n%s", out)
	}
}

// TestReplReload: `reload` swaps a serialized index in through the
// epoch path — a truncated artifact is rejected with the session
// unchanged, a good one starts a new epoch, and queries still answer
// correctly afterwards.
func TestReplReload(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "paper.index")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.index")
	if err := os.WriteFile(bad, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	out := runReplScript(t, "reload "+bad+"\nreload "+good+"\nq a b c\nquit\n")
	if !strings.Contains(out, "reload rejected") || !strings.Contains(out, "current index keeps serving") {
		t.Fatalf("truncated artifact not rejected:\n%s", out)
	}
	// The bad attempt must not have consumed an epoch: the good reload
	// lands on epoch 2.
	if !strings.Contains(out, "reload ok: epoch 2 serving (indexed=true, radius=8)") {
		t.Fatalf("good reload missing:\n%s", out)
	}
	if !strings.Contains(out, "#1 cost=7.000") {
		t.Fatalf("query after reload wrong:\n%s", out)
	}

	// The session feeds the new epoch's probation window: right after the
	// reload 'mem' reports two resident indexes, and once the window's 20
	// queries have finished cleanly the previous one is dropped rather
	// than pinned until the next reload.
	const retained = "retained for rollback"
	out = runReplScript(t, "reload "+good+"\nmem\n"+strings.Repeat("q a b c\n", 21)+"mem\nquit\n")
	before, after, ok := strings.Cut(out, "#1 cost=7.000")
	if !ok || !strings.Contains(before, retained) {
		t.Fatalf("previous epoch not reported while on probation:\n%s", out)
	}
	if !strings.Contains(after, "epoch 1 released (probation passed)") {
		t.Fatalf("20 clean queries did not pass probation:\n%s", out)
	}
	if final := after[strings.LastIndex(after, "> searcher"):]; strings.Contains(final, retained) {
		t.Fatalf("previous epoch still retained after probation:\n%s", final)
	}
	if help := runReplScript(t, "help\nquit\n"); !strings.Contains(help, "reload <file>") {
		t.Fatalf("help does not mention reload:\n%s", help)
	}
	if usage := runReplScript(t, "reload\nquit\n"); !strings.Contains(usage, "usage: reload <index-file>") {
		t.Fatalf("usage line missing:\n%s", usage)
	}
}

// TestReplRecordMatchesServer: the REPL and the server assemble a
// finished query's record with the same producer from the same trace,
// so one query — whatever its keyword order and case — carries the
// same identity in the REPL's slowlog and the server's /debug/queries.
func TestReplRecordMatchesServer(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithIndex(8), commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}

	// The REPL's `q C a b`: a traced top-k, five shown, flushed.
	tr := obs.NewTrace("repl-1")
	begin := time.Now()
	it, err := s.TopKCtx(obs.ContextWithTrace(context.Background(), tr), commdb.Query{Keywords: []string{"C", "a", "b"}, Rmax: 8})
	if err != nil {
		t.Fatal(err)
	}
	shown := 0
	replShow(io.Discard, g, it, &shown, 5)
	it.Close()
	col := obs.NewCollector(obs.CollectorConfig{})
	(&replQuery{start: begin, active: time.Since(begin), tr: tr}).flush(col, snapshot.New(s, snapshot.Config{}), it.Err(), shown)
	fromRepl := col.SlowLog()[0]

	ts := httptest.NewServer(server.New(s, server.Config{}).Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"keywords": []string{"b", "c", "A"}, "rmax": 8, "k": 5})
	resp, err := http.Post(ts.URL+"/v1/search/topk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg server.DebugQueriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil || len(dbg.Queries) != 1 {
		t.Fatalf("/debug/queries: %v, %d records", err, len(dbg.Queries))
	}
	fromServer := dbg.Queries[0]

	if fromRepl.Fingerprint == "" || fromRepl.Fingerprint != fromServer.Fingerprint ||
		!reflect.DeepEqual(fromRepl.Keywords, fromServer.Keywords) ||
		fromRepl.Rmax != fromServer.Rmax || !fromRepl.Indexed || !fromServer.Indexed ||
		fromRepl.Class != fromServer.Class || fromRepl.Results != fromServer.Results {
		t.Fatalf("records disagree:\nREPL   %+v\nserver %+v", fromRepl, fromServer)
	}
	if !reflect.DeepEqual(fromRepl.Trace.Identity, fromServer.Trace.Identity) {
		t.Fatalf("trace identities disagree:\nREPL   %+v\nserver %+v", fromRepl.Trace.Identity, fromServer.Trace.Identity)
	}
}
