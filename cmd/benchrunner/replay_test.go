package main

// Tests of the -replay mode's determinism contract: replaying the same
// journal against two freshly-built identical servers produces
// byte-identical outcome sequences and equal digests, and the CLI path
// turns a journal on disk into a report on its writer.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commdb"
	"commdb/internal/server"
	"commdb/internal/workload"
)

// newReplayTarget boots a deterministic (parallelism 1) indexed server
// over the paper's example graph.
func newReplayTarget(t *testing.T) *httptest.Server {
	t.Helper()
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithIndex(8), commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(s, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// paperWorkload is a small mixed journal over the paper graph: an
// executed top-k, a bounded stream, a repeat of the first shape (a
// cache hit on replay), and a budget-starved query whose recorded
// limits carry a wall-clock timeout that replay must strip while
// keeping the deterministic relaxation budget — which the indexed
// target trips during query-time projection, a deterministic 400.
func paperWorkload() []workload.Entry {
	abc := commdb.Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	a := commdb.Query{Keywords: []string{"a"}, Rmax: 8}
	entries := []workload.Entry{
		{Fingerprint: abc.Fingerprint(), Keywords: []string{"a", "b", "c"}, Rmax: 8,
			Algo: workload.AlgoTopK, K: 3},
		{Fingerprint: abc.Fingerprint(), Keywords: []string{"a", "b", "c"}, Rmax: 8,
			Algo: workload.AlgoAll, Limits: &workload.Limits{MaxResults: 2}},
		{Fingerprint: abc.Fingerprint(), Keywords: []string{"a", "b", "c"}, Rmax: 8,
			Algo: workload.AlgoTopK, K: 3},
		{Fingerprint: a.Fingerprint(), Keywords: []string{"a"}, Rmax: 8,
			Algo: workload.AlgoTopK, K: 5,
			Limits: &workload.Limits{TimeoutMS: 5000, MaxRelaxations: 1}},
	}
	for i := range entries {
		entries[i].Seq = int64(i + 1)
		entries[i].QueryID = "t-" + string(rune('a'+i))
		entries[i].UnixMS = 1_700_000_000_000 + int64(i)*250
	}
	return entries
}

// TestReplayDeterminism is the acceptance test: two replays of the same
// journal against two freshly-built identical servers produce
// byte-identical per-query outcomes — result counts, costs, completion,
// stop reasons — and therefore equal digests.
func TestReplayDeterminism(t *testing.T) {
	entries := paperWorkload()
	var runs [][]replayOutcome
	for i := 0; i < 2; i++ {
		ts := newReplayTarget(t)
		outs, err := replayAgainst(ts.Client(), ts.URL, entries, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(entries) {
			t.Fatalf("run %d replayed %d of %d queries", i, len(outs), len(entries))
		}
		runs = append(runs, outs)
	}
	for i := range entries {
		if runs[0][i].line != runs[1][i].line {
			t.Fatalf("query %d outcomes differ:\n  run1: %s\n  run2: %s",
				i, runs[0][i].line, runs[1][i].line)
		}
	}
	if d1, d2 := digestOutcomes(runs[0]), digestOutcomes(runs[1]); d1 != d2 {
		t.Fatalf("digests differ: %s vs %s", d1, d2)
	}

	// The outcomes themselves are sane: the executed top-k returned
	// results, the bounded stream stopped at its cap, the repeat was a
	// cache hit with the identical outcome line, and the starved query
	// stopped on its work budget despite the stripped timeout.
	outs := runs[0]
	if outs[0].results == 0 || !outs[0].topk {
		t.Fatalf("executed topk outcome: %+v", outs[0])
	}
	if outs[1].results != 2 || !strings.Contains(outs[1].line, "stop=") {
		t.Fatalf("bounded stream outcome: %+v", outs[1])
	}
	if !outs[2].cached || outs[2].line != outs[0].line {
		t.Fatalf("repeated query not a cache hit with identical outcome:\n  %+v\n  %+v",
			outs[2], outs[0])
	}
	// The starved query trips its relaxation budget at projection: a
	// rejection, but a deterministic one — it is part of the digest.
	if !outs[3].errored || !strings.Contains(outs[3].line, "status=400") {
		t.Fatalf("budget-starved query outcome: %+v", outs[3])
	}
}

// TestReplaySanitizeLimits: replay strips wall-clock timeouts (machine
// speed dependent) and keeps work budgets (deterministic).
func TestReplaySanitizeLimits(t *testing.T) {
	if got := sanitizeLimits(nil); got != nil {
		t.Fatalf("nil limits → %+v", got)
	}
	if got := sanitizeLimits(&workload.Limits{TimeoutMS: 1000}); got != nil {
		t.Fatalf("timeout-only limits should vanish, got %+v", got)
	}
	got := sanitizeLimits(&workload.Limits{TimeoutMS: 1000, MaxRelaxations: 7, MaxResults: 3})
	if got == nil || got.TimeoutMS != 0 || got.MaxRelaxations != 7 || got.MaxResults != 3 {
		t.Fatalf("sanitized limits = %+v", got)
	}
}

// writeJournal records entries through the flight recorder's own
// writer, exactly as commserve -workload-log does.
func writeJournal(t *testing.T, path string, entries []workload.Entry) {
	t.Helper()
	j, err := workload.OpenJournal(workload.JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		j.Offer(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunReplayAgainstLiveServer exercises the full -replay CLI path
// against a live server URL: journal in, report out, with a populated
// digest and endpoint stats.
func TestRunReplayAgainstLiveServer(t *testing.T) {
	ts := newReplayTarget(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "wl.ndjson")
	writeJournal(t, journal, paperWorkload())
	var out bytes.Buffer
	if err := runReplay(journal, 0, 1, 1, ts.URL, false, &out); err != nil {
		t.Fatal(err)
	}
	var rep replayBenchReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// The starved fourth query is a deterministic 400: counted as an
	// error, excluded from the latency stats, included in the digest.
	if rep.Queries != 4 || rep.TopKQueries != 2 || rep.AllQueries != 1 || rep.Errors != 1 {
		t.Fatalf("report counts: %+v", rep)
	}
	if rep.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", rep.CacheHits)
	}
	if len(rep.OutcomeDigest) != 64 {
		t.Fatalf("digest %q is not a sha256 hex", rep.OutcomeDigest)
	}
	if rep.TopK.Count != 2 || rep.Stream.Count != 1 {
		t.Fatalf("endpoint stats: topk=%+v stream=%+v", rep.TopK, rep.Stream)
	}

	// An empty journal is rejected, not silently replayed.
	empty := filepath.Join(dir, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runReplay(empty, 0, 1, 1, ts.URL, false, &out); err == nil {
		t.Fatal("empty journal returned nil")
	}
}

// TestReplayRequestShapes: journal entries render back into the wire
// requests the server originally saw — algo routes the endpoint, k only
// rides top-k, and unknown algos are rejected.
func TestReplayRequestShapes(t *testing.T) {
	path, body, err := replayRequest(workload.Entry{
		Algo: workload.AlgoTopK, K: 7, Keywords: []string{"x"}, Rmax: 4})
	if err != nil || path != "/v1/search/topk" {
		t.Fatalf("topk render: path=%q err=%v", path, err)
	}
	var req map[string]any
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if req["k"] != float64(7) || req["rmax"] != float64(4) {
		t.Fatalf("topk body: %v", req)
	}
	path, body, err = replayRequest(workload.Entry{
		Algo: workload.AlgoAll, Keywords: []string{"x"}, Rmax: 4,
		Limits: &workload.Limits{TimeoutMS: 100}})
	if err != nil || path != "/v1/search/all" {
		t.Fatalf("all render: path=%q err=%v", path, err)
	}
	if bytes.Contains(body, []byte("limits")) {
		t.Fatalf("timeout-only limits survived sanitizing: %s", body)
	}
	if _, _, err := replayRequest(workload.Entry{Algo: "bogus"}); err == nil {
		t.Fatal("unknown algo returned nil")
	}
}
