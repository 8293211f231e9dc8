package server

// End-to-end tests of the workload flight recorder: the stop-reason
// split (result-limit vs budget exhaustion), the /debug/workloadz
// attribution tables, and the durable journal capture including
// cache-hit entries.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"commdb/internal/workload"
)

// drainStream reads an NDJSON response to its trailer.
func drainStream(t *testing.T, resp *http.Response) Trailer {
	t.Helper()
	defer resp.Body.Close()
	var trailer Trailer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if probe.Type == RecordTrailer {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trailer
}

// TestStopReasonSplit proves the fix for the budget_trips conflation:
// a query stopped by its max_results limit is an ordinary bounded
// completion (result_limit_stops), while a work-budget trip is real
// resource pressure (budget_exhausted) — and the two never mix.
func TestStopReasonSplit(t *testing.T) {
	srv, ts := newPaperServer(t, Config{CacheEntries: -1})

	// A bounded stream: max_results=2 stops enumeration at 2 — a
	// result-limit stop, not exhaustion.
	resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b", "c"},
		map[string]any{"limits": map[string]any{"max_results": 2}}))
	trailer := drainStream(t, resp)
	if trailer.Complete || !strings.Contains(trailer.Reason, "results") {
		t.Fatalf("trailer = %+v, want a results-limit stop", trailer)
	}
	if st := srv.Stats(); st.ResultLimitStops != 1 || st.BudgetExhausted != 0 {
		t.Fatalf("after results stop: result_limit_stops=%d budget_exhausted=%d, want 1/0",
			st.ResultLimitStops, st.BudgetExhausted)
	}
	// ...and not an error anywhere: the class table counts it as a clean
	// query and the slow log does not retain it as errored.
	classErrors := func() (errs, windowErrs int64) {
		for _, c := range srv.Stats().QueryClasses {
			errs += c.Errors
			windowErrs += c.WindowErrors
		}
		return errs, windowErrs
	}
	if errs, windowErrs := classErrors(); errs != 0 || windowErrs != 0 {
		t.Fatalf("after results stop: class errors=%d window_errors=%d, want 0/0", errs, windowErrs)
	}
	for _, rec := range srv.collector.SlowLog() {
		if rec.Errored || !strings.Contains(rec.StopReason, "results") {
			t.Fatalf("bounded stream captured as %+v, want its stop reason without the errored mark", rec)
		}
	}

	// A starved work budget: one relaxation is never enough, so the
	// query stops from genuine resource pressure.
	resp = postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a"}, map[string]any{
		"k": 5, "limits": map[string]any{"max_relaxations": 1},
	}))
	if out := decodeTopK(t, resp); out.Complete {
		t.Fatal("budget-starved query reported complete")
	}
	st := srv.Stats()
	if st.ResultLimitStops != 1 || st.BudgetExhausted != 1 {
		t.Fatalf("after budget trip: result_limit_stops=%d budget_exhausted=%d, want 1/1",
			st.ResultLimitStops, st.BudgetExhausted)
	}
	if errs, windowErrs := classErrors(); errs != 1 || windowErrs != 1 {
		t.Fatalf("after budget trip: class errors=%d window_errors=%d, want 1/1", errs, windowErrs)
	}

	// The split is on the wire too: /statsz carries both fields (and no
	// legacy conflated one), /metricsz both families.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/statsz"), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["result_limit_stops"]; !ok {
		t.Fatal("/statsz lacks result_limit_stops")
	}
	if _, ok := raw["budget_exhausted"]; !ok {
		t.Fatal("/statsz lacks budget_exhausted")
	}
	if _, ok := raw["budget_trips"]; ok {
		t.Fatal("/statsz still reports the conflated budget_trips")
	}
	text := string(getBody(t, ts.URL+"/metricsz"))
	for _, want := range []string{
		"commdb_result_limit_stops_total 1",
		"commdb_budget_exhausted_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in /metricsz:\n%s", want, text)
		}
	}
	if strings.Contains(text, "commdb_budget_trips_total") {
		t.Fatal("/metricsz still exports commdb_budget_trips_total")
	}
}

// TestWorkloadzAttribution drives a repeated query through the server
// and checks the flight recorder's read side: per-keyword init
// attribution in /debug/workloadz, the workload block in /statsz, and
// the labeled keyword families in /metricsz.
func TestWorkloadzAttribution(t *testing.T) {
	_, ts := newPaperServer(t, Config{})

	// Same query twice: the first executes (paying keyword init), the
	// second is absorbed by the result cache.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/search/topk",
			searchBody(t, []string{"a", "b", "c"}, map[string]any{"k": 3}))
		out := decodeTopK(t, resp)
		if wantCached := i == 1; out.Cached != wantCached {
			t.Fatalf("request %d cached=%v, want %v", i, out.Cached, wantCached)
		}
	}

	var snap workload.Snapshot
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/workloadz?format=json"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Observed != 2 || snap.CacheAbsorbed != 1 {
		t.Fatalf("observed=%d absorbed=%d, want 2/1", snap.Observed, snap.CacheAbsorbed)
	}
	if len(snap.HotKeywords) != 3 {
		t.Fatalf("hot keywords: %+v, want 3 terms", snap.HotKeywords)
	}
	terms := map[string]workload.KeywordStats{}
	for _, kw := range snap.HotKeywords {
		terms[kw.Term] = kw
	}
	for _, term := range []string{"a", "b", "c"} {
		kw, ok := terms[term]
		if !ok {
			t.Fatalf("term %q missing from hot keywords: %+v", term, snap.HotKeywords)
		}
		if kw.Queries != 2 || kw.CacheHits != 1 {
			t.Fatalf("term %q: queries=%d hits=%d, want 2/1", term, kw.Queries, kw.CacheHits)
		}
		// Only the executed query paid engine init; the full-set reverse
		// Dijkstra for each keyword is charged to that keyword.
		if kw.InitRuns == 0 || kw.InitVisits == 0 {
			t.Fatalf("term %q has no init attribution: %+v", term, kw)
		}
	}
	if len(snap.Classes) != 1 || snap.Classes[0].Queries != 2 || snap.Classes[0].CacheHits != 1 {
		t.Fatalf("classes: %+v, want one class with 2 queries / 1 hit", snap.Classes)
	}

	// The same tables surface as a workload block in /statsz and as
	// labeled keyword families in /metricsz.
	var stats struct {
		Workload *workload.Snapshot `json:"workload"`
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/statsz"), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Workload == nil || stats.Workload.Observed != 2 {
		t.Fatalf("/statsz workload block: %+v", stats.Workload)
	}
	text := string(getBody(t, ts.URL+"/metricsz"))
	for _, want := range []string{
		`commdb_keyword_queries_total{term="a"} 2`,
		`commdb_keyword_cache_hits_total{term="b"} 1`,
		"commdb_workload_observed_total 2",
		"commdb_workload_cache_absorbed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in /metricsz:\n%s", want, text)
		}
	}
}

// TestWorkloadJournalCapture runs a mixed workload against a server
// with durable recording on and replays the journal file: executions
// and cache hits both land as entries, in arrival order, with matching
// canonical fingerprints and the request's effective limits.
func TestWorkloadJournalCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.ndjson")
	j, err := workload.OpenJournal(workload.JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, ts := newPaperServer(t, Config{WorkloadJournal: j})

	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/search/topk",
			searchBody(t, []string{"a", "b", "c"}, map[string]any{"k": 3}))
		decodeTopK(t, resp)
	}
	resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b"},
		map[string]any{"limits": map[string]any{"max_results": 2}}))
	drainStream(t, resp)

	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := workload.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("journal has %d entries, want 3", len(got))
	}
	exec, hit, stream := got[0], got[1], got[2]
	if exec.CacheHit || exec.Algo != workload.AlgoTopK || !exec.Complete || exec.Results != 3 {
		t.Fatalf("executed entry: %+v", exec)
	}
	if exec.Fingerprint == "" || len(exec.KeywordInit) != 3 {
		t.Fatalf("executed entry lacks identity or init attribution: %+v", exec)
	}
	if !hit.CacheHit || hit.Fingerprint != exec.Fingerprint || len(hit.KeywordInit) != 0 {
		t.Fatalf("cache-hit entry: %+v", hit)
	}
	if stream.Algo != workload.AlgoAll || stream.Limits == nil || stream.Limits.MaxResults != 2 {
		t.Fatalf("stream entry: %+v", stream)
	}
	if stream.Complete || !strings.Contains(stream.StopReason, "results") {
		t.Fatalf("stream entry outcome: complete=%v stop=%q", stream.Complete, stream.StopReason)
	}
}
