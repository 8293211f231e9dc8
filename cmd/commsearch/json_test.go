package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"commdb"
	"commdb/internal/server"
)

// TestJSONMatchesServerStream cross-checks the satellite contract: the
// CLI's -json output and the server's streaming endpoint produce
// line-identical records for the same query (trailers agree modulo
// elapsed time).
func TestJSONMatchesServerStream(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g)
	if err != nil {
		t.Fatal(err)
	}

	// CLI side. The CLI does not normalize (it preserves the user's
	// keyword order), so feed it the normalized query the server would
	// run for the same request.
	q := commdb.Query{Keywords: []string{"c", "a", "b"}, Rmax: 8}.Normalized()
	it, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := emitNDJSON(&cli, g, it, 0, true, nil); err != nil {
		t.Fatal(err)
	}

	// Server side, same query pre-normalization.
	srv := server.New(s, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"keywords": []string{"c", "a", "b"}, "rmax": 8, "compact": true})
	resp, err := http.Post(ts.URL+"/v1/search/all", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	cliLines := strings.Split(strings.TrimSpace(cli.String()), "\n")
	var srvLines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		srvLines = append(srvLines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cliLines) != len(srvLines) {
		t.Fatalf("CLI emitted %d lines, server %d", len(cliLines), len(srvLines))
	}
	if len(cliLines) != 6 { // the paper's 5 communities + trailer
		t.Fatalf("got %d lines, want 6", len(cliLines))
	}
	for i := 0; i < len(cliLines)-1; i++ {
		if cliLines[i] != srvLines[i] {
			t.Errorf("record %d differs:\nCLI:    %s\nserver: %s", i+1, cliLines[i], srvLines[i])
		}
	}
	var ct, st server.Trailer
	if err := json.Unmarshal([]byte(cliLines[len(cliLines)-1]), &ct); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(srvLines[len(srvLines)-1]), &st); err != nil {
		t.Fatal(err)
	}
	if ct.Count != st.Count || ct.Complete != st.Complete || ct.Reason != st.Reason {
		t.Fatalf("trailers disagree: CLI %+v, server %+v", ct, st)
	}
}

// runStdout runs the tool's -all path on the paper example and returns
// what it printed.
func runStdout(t *testing.T, max int, jsonOut bool) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run("", "paper", "", "a,b,c", 8, 0, true, max, false, false, jsonOut, false, 1, commdb.Limits{})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestMaxFlagModesAgree: -max caps -all output the same way in text and
// -json mode, and 0 means unlimited in both.
func TestMaxFlagModesAgree(t *testing.T) {
	for max, want := range map[int]int{0: 5, 2: 2} {
		text := runStdout(t, max, false)
		if !strings.Contains(text, fmt.Sprintf("\n%d communities\n", want)) {
			t.Errorf("-max %d text mode printed:\n%s\nwant %d communities", max, text, want)
		}
		lines := strings.Split(strings.TrimSpace(runStdout(t, max, true)), "\n")
		var trailer server.Trailer
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
			t.Fatal(err)
		}
		if trailer.Count != want || len(lines) != want+1 {
			t.Errorf("-max %d -json: %d records, trailer count %d, want %d", max, len(lines)-1, trailer.Count, want)
		}
	}
}

// TestJSONTrailerReportsStop: a governed CLI query that trips its
// budget still emits the partial records and a trailer with the
// reason, like the server does.
func TestJSONTrailerReportsStop(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	q := commdb.Query{Keywords: []string{"a", "b", "c"}, Rmax: 8, Limits: commdb.Limits{MaxResults: 2}}
	it, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := emitNDJSON(&out, g, it, 0, true, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // 2 granted + trailer
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	var trailer server.Trailer
	if err := json.Unmarshal([]byte(lines[2]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Complete || trailer.Count != 2 || !strings.Contains(trailer.Reason, "results") {
		t.Fatalf("trailer = %+v, want an incomplete results-budget stop after 2", trailer)
	}
}
