package server

// End-to-end tests of how a query's stop is accounted: the stop-reason
// split (result-limit vs budget exhaustion), a budget trip inside the
// projection, and the removed attribution surfaces staying gone.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"commdb"
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
	// ...and not an error: the slow log keeps its stop reason without the
	// errored mark.
	errored := func() (n int) {
		for _, rec := range srv.collector.SlowLog() {
			if rec.Errored {
				n++
			}
		}
		return n
	}
	log := srv.collector.SlowLog()
	if len(log) != 1 || !strings.Contains(log[0].StopReason, "results") || errored() != 0 {
		t.Fatalf("bounded stream captured as %+v, want its stop reason without the errored mark", log)
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
	if n := errored(); n != 1 {
		t.Fatalf("after budget trip: %d errored records in the slow log, want 1", n)
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

// TestWorkloadzGone: the attribution surfaces are deleted, not hidden —
// the endpoint 404s, and neither /metricsz nor /statsz mentions a
// keyword table or the retired workload journal.
func TestWorkloadzGone(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b", "c"}, nil)).Body.Close()

	resp, err := http.Get(ts.URL + "/debug/workloadz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/workloadz = %d, want 404", resp.StatusCode)
	}
	for _, path := range []string{"/metricsz", "/statsz"} {
		text := string(getBody(t, ts.URL+path))
		for _, gone := range []string{"commdb_keyword_", "hot_keywords", "commdb_workload_", "workload_journal"} {
			if strings.Contains(text, gone) {
				t.Errorf("%s still mentions %q", path, gone)
			}
		}
	}
}

// TestProjectionStopAccounted: a work budget that trips inside the
// index projection fails the query closed before a stream exists — and
// that exit is accounted like any other on both endpoints: the 400 the
// client always got, a budget_exhausted stop, an errored capture
// record, and the projection's Dijkstra work in the engine counters.
func TestProjectionStopAccounted(t *testing.T) {
	db, err := commdb.GenerateDBLP(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := commdb.GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := commdb.Open(g, commdb.WithIndex(6), commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(s, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dijkstraRuns := func() string {
		return grepLines(string(getBody(t, ts.URL+"/metricsz")), "commdb_dijkstra_runs_total ")
	}
	for i, endpoint := range []string{"topk", "all"} {
		runsBefore := dijkstraRuns()
		resp := postJSON(t, ts.URL+"/v1/search/"+endpoint, searchBody(t, []string{"web", "parallel"},
			map[string]any{"rmax": 6, "limits": map[string]any{"max_relaxations": 1}}))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !contains(body, "budget exhausted") {
			t.Fatalf("%s: status %d body %s, want 400 naming the exhausted budget", endpoint, resp.StatusCode, body)
		}
		st := srv.Stats()
		if st.BudgetExhausted != int64(i+1) || st.Canceled != 0 || st.QueriesCompleted != int64(i+1) {
			t.Fatalf("%s: budget_exhausted=%d canceled=%d completed=%d, want %d/0/%d",
				endpoint, st.BudgetExhausted, st.Canceled, st.QueriesCompleted, i+1, i+1)
		}
		if runsAfter := dijkstraRuns(); runsAfter == runsBefore {
			t.Fatalf("%s: the projection's Dijkstra runs never reached /metricsz (%s)", endpoint, runsAfter)
		}
	}
	log := srv.collector.SlowLog()
	if len(log) != 2 {
		t.Fatalf("captured %d records, want both refused queries", len(log))
	}
	for _, rec := range log {
		if !rec.Errored || !rec.Indexed || !strings.Contains(rec.StopReason, "budget exhausted") {
			t.Fatalf("refused query captured as %+v", rec)
		}
	}
}
