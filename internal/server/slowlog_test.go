package server

// End-to-end tests of the continuous observability layer: the
// emission-delay SLO watchdog, the tail-sampled slow-query capture ring
// behind GET /debug/queries, and their exposure through /metricsz.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"commdb"
	"commdb/internal/obs"
)

// stallStream emits one community per configured delay, recording each
// emission on the query's trace like the real enumerators do — so the
// watchdog sees genuine inter-emission gaps.
type stallStream struct {
	ctx    context.Context
	delays []time.Duration
	i      int
}

func (s *stallStream) Next() (*commdb.Community, bool) {
	if s.i >= len(s.delays) {
		return nil, false
	}
	time.Sleep(s.delays[s.i])
	if tr := obs.FromContext(s.ctx); tr != nil {
		tr.Emission()
	}
	s.i++
	return fakeCommunity(s.i), true
}

func (s *stallStream) Err() error   { return nil }
func (s *stallStream) Close() error { return nil }

// stallEngine serves every query with a fresh stallStream.
type stallEngine struct{ delays []time.Duration }

func (e *stallEngine) stream(ctx context.Context) (Stream, error) {
	return &stallStream{ctx: ctx, delays: e.delays}, nil
}
func (e *stallEngine) All(ctx context.Context, _ commdb.Query) (Stream, error) {
	return e.stream(ctx)
}
func (e *stallEngine) TopK(ctx context.Context, _ commdb.Query) (Stream, error) {
	return e.stream(ctx)
}
func (e *stallEngine) Graph() *commdb.Graph { return nil }

// syncWriter serializes slog output so the test can read it racelessly.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return b
}

func debugQueries(t *testing.T, baseURL string) DebugQueriesResponse {
	t.Helper()
	var out DebugQueriesResponse
	if err := json.Unmarshal(getBody(t, baseURL+"/debug/queries"), &out); err != nil {
		t.Fatalf("decoding /debug/queries: %v", err)
	}
	return out
}

// TestSLOBreachEndToEnd is the acceptance test for the watchdog: a
// query whose enumeration stalls mid-stream (fast emissions, then one
// long gap) must increment commdb_emission_slo_breaches_total, be
// captured into /debug/queries with its trace, and produce a structured
// warning log line.
func TestSLOBreachEndToEnd(t *testing.T) {
	// Seven quick emissions then an 80ms stall: the median gap is ~1ms,
	// the max is > 32x the median and above the 5ms absolute floor.
	delays := []time.Duration{
		time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond,
		time.Millisecond, time.Millisecond, time.Millisecond, 80 * time.Millisecond,
	}
	logw := &syncWriter{}
	srv := NewWithEngine(&stallEngine{delays: delays}, Config{
		Logger: slog.New(slog.NewTextHandler(logw, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/search/topk",
		searchBody(t, []string{"stall", "query"}, map[string]any{"k": len(delays)}))
	out := decodeTopK(t, resp)
	if len(out.Results) != len(delays) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(delays))
	}

	metrics := string(getBody(t, ts.URL+"/metricsz"))
	if !strings.Contains(metrics, "commdb_emission_slo_breaches_total 1") {
		t.Fatalf("metricsz missing breach counter:\n%s", grepLines(metrics, "slo"))
	}

	dbg := debugQueries(t, ts.URL)
	if dbg.SLOBreaches != 1 {
		t.Fatalf("slo_breaches = %d, want 1", dbg.SLOBreaches)
	}
	var breach *obs.QueryRecord
	for i := range dbg.Queries {
		if dbg.Queries[i].SLOBreach {
			breach = &dbg.Queries[i]
			break
		}
	}
	if breach == nil {
		t.Fatalf("no SLO-breaching record in /debug/queries (%d records)", len(dbg.Queries))
	}
	if !containsStr(breach.Captured, obs.CapturedBreach) {
		t.Fatalf("breach record capture reasons = %v, want %q", breach.Captured, obs.CapturedBreach)
	}
	if breach.Trace == nil || breach.Trace.Emissions == nil {
		t.Fatal("breach record was captured without its trace")
	}
	if n := breach.Trace.Emissions.Count; n != int64(len(delays)) {
		t.Fatalf("captured trace has %d emissions, want %d", n, len(delays))
	}
	if breach.MaxEmissionDelayMS < 50 {
		t.Fatalf("max emission delay = %.2fms, want the ~80ms stall", breach.MaxEmissionDelayMS)
	}
	if breach.MedianEmissionDelayMS >= breach.MaxEmissionDelayMS {
		t.Fatalf("median %.2fms not below max %.2fms", breach.MedianEmissionDelayMS, breach.MaxEmissionDelayMS)
	}

	log := logw.String()
	if !strings.Contains(log, "emission SLO breach") {
		t.Fatalf("no SLO warning logged:\n%s", log)
	}
}

// TestSLONoFalsePositiveUniformSlow: a uniformly slow stream has a
// large max gap, above the absolute floor, but an equally large median,
// so it must not breach.
func TestSLONoFalsePositiveUniformSlow(t *testing.T) {
	delays := []time.Duration{
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond,
	}
	srv := NewWithEngine(&stallEngine{delays: delays}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/search/topk",
		searchBody(t, []string{"steady"}, map[string]any{"k": len(delays)}))
	decodeTopK(t, resp)

	if dbg := debugQueries(t, ts.URL); dbg.SLOBreaches != 0 {
		t.Fatalf("uniformly slow query breached the SLO: %d breaches", dbg.SLOBreaches)
	}
}

// TestSLONoFalsePositiveSlowFirstResult: the time to the first result
// (projection plus engine init on a real searcher) is not a gap between
// emissions. A stream that takes 40ms to its first community and then
// emits every 1ms is healthy; its trace still reports the 40ms as
// first_ms and as its first delay.
func TestSLONoFalsePositiveSlowFirstResult(t *testing.T) {
	delays := []time.Duration{40 * time.Millisecond}
	for i := 0; i < 7; i++ {
		delays = append(delays, time.Millisecond)
	}
	srv := NewWithEngine(&stallEngine{delays: delays}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr := drainStream(t, postJSON(t, ts.URL+"/v1/search/all",
		searchBody(t, []string{"slow", "start"}, map[string]any{"trace": true})))
	if tr.Count != len(delays) || tr.Trace == nil || tr.Trace.Emissions == nil {
		t.Fatalf("trailer = %+v", tr)
	}
	e := tr.Trace.Emissions
	if e.FirstMS < 40 || e.DelaysMS[0] != e.FirstMS {
		t.Fatalf("first_ms = %.2f, delays[0] = %.2f: want both the 40ms time to first result", e.FirstMS, e.DelaysMS[0])
	}
	if e.MaxDelayMS >= 40 {
		t.Fatalf("max_delay_ms = %.2f counts the time to first result as a gap", e.MaxDelayMS)
	}
	if dbg := debugQueries(t, ts.URL); dbg.SLOBreaches != 0 {
		t.Fatalf("a slow first result breached the SLO: %d breaches", dbg.SLOBreaches)
	}
}

// TestDebugQueriesMixedWorkload drives the paper's running example
// through a mixed workload — healthy queries of distinct keyword counts
// plus a budget-tripped one — and checks the slow log, that each fact
// has one JSON home, and the keywords label in /metricsz.
func TestDebugQueriesMixedWorkload(t *testing.T) {
	_, ts := newPaperServer(t, Config{CacheEntries: -1})

	// Healthy queries of three and two keywords.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/search/topk",
			searchBody(t, []string{"a", "b", "c"}, map[string]any{"k": 3 + i}))
		decodeTopK(t, resp)
	}
	resp := postJSON(t, ts.URL+"/v1/search/topk",
		searchBody(t, []string{"a", "b"}, map[string]any{"k": 2}))
	decodeTopK(t, resp)

	// A budget-tripped query: one relaxation is never enough, so the
	// enumeration stops with a budget stop reason and must always be
	// captured regardless of its latency.
	resp = postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a"}, map[string]any{
		"k": 5, "limits": map[string]any{"max_relaxations": 1},
	}))
	tripped := decodeTopK(t, resp)
	if tripped.Complete {
		t.Fatal("budget-limited query reported complete")
	}

	dbg := debugQueries(t, ts.URL)
	if dbg.Observed != 5 {
		t.Fatalf("observed = %d, want 5", dbg.Observed)
	}
	if dbg.Retained == 0 || len(dbg.Queries) == 0 {
		t.Fatal("mixed workload captured nothing")
	}
	// Records come back slowest-first with full traces.
	for i := 1; i < len(dbg.Queries); i++ {
		if dbg.Queries[i].TotalMS > dbg.Queries[i-1].TotalMS {
			t.Fatalf("slow log not sorted: %v then %v ms", dbg.Queries[i-1].TotalMS, dbg.Queries[i].TotalMS)
		}
	}
	var sawSlow, sawErrored bool
	for _, rec := range dbg.Queries {
		if containsStr(rec.Captured, obs.CapturedSlow) {
			sawSlow = true
		}
		if containsStr(rec.Captured, obs.CapturedErrored) {
			sawErrored = true
			if !strings.Contains(rec.StopReason, "budget") {
				t.Fatalf("errored record stop reason = %q, want a budget trip", rec.StopReason)
			}
		}
		if rec.Trace == nil {
			t.Fatalf("record %s captured without trace", rec.QueryID)
		}
		if rec.Fingerprint == "" {
			t.Fatalf("record %s has no fingerprint", rec.QueryID)
		}
	}
	if !sawSlow || !sawErrored {
		t.Fatalf("capture reasons missing: slow=%v errored=%v", sawSlow, sawErrored)
	}

	// /statsz no longer re-serves this endpoint's counters, the per-class
	// table or /debug/memz's ledger: each fact has one home.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/statsz"), &raw); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	for _, gone := range []string{"query_classes", "memory", "capture_observed", "capture_retained", "slo_breaches"} {
		if _, ok := raw[gone]; ok {
			t.Errorf("/statsz still carries %q", gone)
		}
	}
	var dbgRaw map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/queries"), &dbgRaw); err != nil {
		t.Fatalf("decoding /debug/queries: %v", err)
	}
	if _, ok := dbgRaw["classes"]; ok {
		t.Error("/debug/queries still carries classes")
	}

	// Latency by keyword count is the histogram's keywords label: three
	// a,b,c queries, one a,b and the budget-tripped a.
	metrics := string(getBody(t, ts.URL+"/metricsz"))
	if err := obs.LintPrometheus(strings.NewReader(metrics)); err != nil {
		t.Fatalf("metricsz lint: %v", err)
	}
	for _, want := range []string{
		`commdb_query_latency_ms_count{keywords="1"} 1`,
		`commdb_query_latency_ms_count{keywords="2"} 1`,
		`commdb_query_latency_ms_count{keywords="3"} 3`,
		`commdb_query_latency_ms_count{keywords="4+"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metricsz missing %s:\n%s", want, grepLines(metrics, "commdb_query_latency_ms_count"))
		}
	}
}

// TestCaptureConcurrencyStress hammers the capture ring and the latency
// histogram from concurrent queries while scraping /debug/queries,
// /statsz and /metricsz — the satellite -race test for the whole layer.
func TestCaptureConcurrencyStress(t *testing.T) {
	const writers, perWriter = 8, 40
	eng := &fakeEngine{n: 2}
	srv := NewWithEngine(eng, Config{
		CacheEntries: -1,
		// A slot per writer: admission must not shed load here (a 429 is
		// never observed), whatever the host's core count.
		MaxConcurrent: writers,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				kws := []string{fmt.Sprintf("w%d", w), fmt.Sprintf("i%d", i)}
				if i%3 == 0 {
					kws = kws[:1]
				}
				resp := postJSON(t, ts.URL+"/v1/search/topk",
					searchBody(t, kws, map[string]any{"k": 1 + i%3}))
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				debugQueries(t, ts.URL)
				if err := obs.LintPrometheus(bytes.NewReader(getBody(t, ts.URL+"/metricsz"))); err != nil {
					t.Errorf("metricsz lint under load: %v", err)
					return
				}
				getBody(t, ts.URL+"/statsz")
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	dbg := debugQueries(t, ts.URL)
	if want := int64(writers * perWriter); dbg.Observed != want {
		t.Fatalf("observed = %d, want %d", dbg.Observed, want)
	}
	if len(dbg.Queries) == 0 {
		t.Fatal("stress run captured no records")
	}
	if got := srv.Stats().Latency.Count; got != int64(writers*perWriter) {
		t.Fatalf("query_latency.count = %d, want %d", got, writers*perWriter)
	}
}

func containsStr(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// grepLines returns the lines of s containing sub, for failure output.
func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
