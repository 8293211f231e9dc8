package server

// End-to-end tests of the observability surface: EXPLAIN mode on both
// endpoints, the /metricsz Prometheus exposition, and the /statsz
// +Inf-bucket wire format.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"commdb"
	"commdb/internal/obs"
)

// newPaperServer serves the paper's 13-node running example through a
// real searcher, so traces carry genuine engine counters.
func newPaperServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(s, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestExplainTopK: "trace": true on the topk endpoint returns the
// structured trace alongside the results — spans, engine counters and
// per-community inter-emission delays — and bypasses the cache so the
// trace reflects a real execution.
func TestExplainTopK(t *testing.T) {
	_, ts := newPaperServer(t, Config{})

	// Prime the cache with an untraced run of the same query.
	resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b", "c"}, map[string]any{"k": 5}))
	if out := decodeTopK(t, resp); out.Trace != nil {
		t.Fatalf("untraced request returned a trace: %+v", out.Trace)
	}

	resp = postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b", "c"}, map[string]any{"k": 5, "trace": true}))
	if qid := resp.Header.Get("X-Query-Id"); qid == "" {
		t.Fatal("missing X-Query-Id header")
	}
	out := decodeTopK(t, resp)
	if out.Cached {
		t.Fatal("trace request was served from the cache")
	}
	if len(out.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(out.Results))
	}
	tr := out.Trace
	if tr == nil {
		t.Fatal("trace request returned no trace")
	}
	if tr.QueryID == "" {
		t.Fatal("trace has no query id")
	}
	if _, ok := tr.Span("engine_init"); !ok {
		t.Fatalf("trace lacks engine_init span: %+v", tr.Spans)
	}
	if _, ok := tr.Span("enumerate"); !ok {
		t.Fatalf("trace lacks enumerate span: %+v", tr.Spans)
	}
	for _, c := range []string{"dijkstra_runs", "dijkstra_visits", "heap_pushes", "neighbor_runs", "bestcore_scans", "getcommunity_calls", "emitted", "can_tuples"} {
		if tr.Counter(c) <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, tr.Counter(c))
		}
	}
	if tr.Algorithm != "comm_k" {
		t.Errorf("algorithm = %q, want comm_k", tr.Algorithm)
	}
	if tr.Emissions == nil || tr.Emissions.Count != 5 || len(tr.Emissions.DelaysMS) != 5 {
		t.Fatalf("emissions = %+v, want 5 delays", tr.Emissions)
	}
}

// TestExplainAllStream: "trace": true on the streaming endpoint puts
// the trace summary in the NDJSON trailer.
func TestExplainAllStream(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b", "c"}, map[string]any{"trace": true}))
	defer resp.Body.Close()
	if qid := resp.Header.Get("X-Query-Id"); qid == "" {
		t.Fatal("missing X-Query-Id header")
	}
	var trailer Trailer
	sc := bufio.NewScanner(resp.Body)
	count := 0
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
		} else {
			count++
		}
	}
	if trailer.Type != RecordTrailer || !trailer.Complete {
		t.Fatalf("trailer = %+v", trailer)
	}
	tr := trailer.Trace
	if tr == nil {
		t.Fatal("trailer carries no trace")
	}
	if tr.Algorithm != "comm_all" {
		t.Errorf("algorithm = %q, want comm_all", tr.Algorithm)
	}
	if tr.Emissions == nil || tr.Emissions.Count != int64(count) {
		t.Fatalf("emissions = %+v, want count %d", tr.Emissions, count)
	}
	if tr.Counter("emitted") != int64(count) {
		t.Fatalf("emitted = %d, want %d", tr.Counter("emitted"), count)
	}
}

// TestMetricszPromLint: the exposition parses under the package's own
// Prometheus text-format lint — the same check CI runs.
func TestMetricszPromLint(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	// Generate some traffic first so histograms and counters are live.
	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b"}, nil)).Body.Close()

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE commdb_dijkstra_visits_total counter",
		"# TYPE commdb_queries_started_total counter",
		"# TYPE commdb_query_latency_ms histogram",
		`commdb_query_latency_ms_bucket{keywords="2",le="+Inf"} 1`,
		"# TYPE commdb_mem_total_bytes gauge",
		"# TYPE commdb_mem_graph_bytes gauge",
		"# TYPE commdb_mem_index_bytes gauge",
		"# TYPE commdb_mem_fulltext_bytes gauge",
		"# TYPE commdb_mem_heap_alloc_bytes gauge",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricszCountersIncrease: engine counters on /metricsz increase
// monotonically across queries, whether or not clients ask for traces.
func TestMetricszCountersIncrease(t *testing.T) {
	_, ts := newPaperServer(t, Config{CacheEntries: -1}) // no cache: every request executes

	scrape := func() map[string]float64 {
		resp, err := http.Get(ts.URL + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]float64{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") || line == "" {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				continue
			}
			out[fields[0]] = v
		}
		return out
	}

	before := scrape()
	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b", "c"}, map[string]any{"k": 3})).Body.Close()
	mid := scrape()
	// Read the stream to its trailer: the handler folds its counters in
	// only once the enumeration ends.
	drainStream(t, postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b"}, nil)))
	after := scrape()

	for _, m := range []string{
		"commdb_dijkstra_runs_total",
		"commdb_dijkstra_visits_total",
		"commdb_heap_pushes_total",
		"commdb_heap_pops_total",
		"commdb_neighbor_runs_total",
		"commdb_communities_emitted_total",
		"commdb_queries_started_total",
	} {
		if !(before[m] < mid[m] && mid[m] < after[m]) {
			t.Errorf("%s did not increase across queries: %v -> %v -> %v", m, before[m], mid[m], after[m])
		}
	}
	if mid["commdb_can_tuples_total"] <= before["commdb_can_tuples_total"] {
		t.Errorf("can_tuples did not increase over a top-k query")
	}
}

// TestStatszInfBucketWireFormat locks the /statsz histogram encoding:
// finite bucket bounds are JSON numbers and the final unbounded bucket
// is the string "+Inf" — not the old ambiguous 0.
func TestStatszInfBucketWireFormat(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b"}, nil)).Body.Close()

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`\{"le_ms":"\+Inf","count":\d+\}`).Match(raw) {
		t.Fatalf("statsz lacks the +Inf sentinel bucket:\n%s", raw)
	}
	if bytes.Contains(raw, []byte(`"le_ms":0`)) {
		t.Fatalf("statsz still encodes a 0 bucket bound:\n%s", raw)
	}

	// And it round-trips: the sentinel decodes back to +Inf.
	var snap StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	last := snap.Latency.Buckets[len(snap.Latency.Buckets)-1]
	if !math.IsInf(float64(last.LE), 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", last.LE)
	}
	var total int64
	for _, b := range snap.Latency.Buckets {
		total += b.Count
	}
	if total != snap.Latency.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, snap.Latency.Count)
	}
}

// TestRequestLogging: a configured slog logger receives one line per
// query carrying the same query ID the response header exposes.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newPaperServer(t, Config{Logger: logger})

	resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b"}, nil))
	qid := resp.Header.Get("X-Query-Id")
	resp.Body.Close()
	if qid == "" {
		t.Fatal("missing X-Query-Id")
	}
	var line struct {
		Msg      string   `json:"msg"`
		QID      string   `json:"qid"`
		Endpoint string   `json:"endpoint"`
		Keywords []string `json:"keywords"`
		Complete bool     `json:"complete"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line %q: %v", buf.String(), err)
	}
	if line.Msg != "query" || line.QID != qid || line.Endpoint != "topk" || !line.Complete {
		t.Fatalf("log line = %+v, want query %s on topk", line, qid)
	}
	if len(line.Keywords) != 2 {
		t.Fatalf("logged keywords = %v", line.Keywords)
	}
}

// TestPprofMounted: the pprof index answers only when enabled, and
// profiles are admin surface — enabling pprof without configuring an
// admin token fails closed, and a valid bearer token unlocks it.
func TestPprofMounted(t *testing.T) {
	_, off := newPaperServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served while disabled")
	}

	_, tokenless := newPaperServer(t, Config{Pprof: true})
	resp, err = http.Get(tokenless.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("pprof status = %d with no admin token, want 403 (fail closed)", resp.StatusCode)
	}

	_, on := newPaperServer(t, Config{Pprof: true, AdminToken: "tok"})
	req, _ := http.NewRequest(http.MethodGet, on.URL+"/debug/pprof/", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d with Pprof on + valid token, want 200", resp.StatusCode)
	}
}

// TestTraceWireGolden locks the wire shape of a "trace": true body on
// the paper query: typed identity, spans, counters under their
// counter-table names. Timings are zeroed; everything else is exact
// (the searcher is sequential, so the counters are deterministic).
func TestTraceWireGolden(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(s, Config{}).Handler())
	defer ts.Close()
	out := decodeTopK(t, postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"c", "A", "b"}, map[string]any{"k": 5, "trace": true})))
	tr := out.Trace
	if tr == nil || tr.Emissions == nil {
		t.Fatalf("no trace in %+v", out)
	}
	tr.TotalMS = 0
	for i := range tr.Spans {
		tr.Spans[i].StartMS, tr.Spans[i].DurMS = 0, 0
	}
	e := tr.Emissions
	e.FirstMS, e.MeanDelayMS, e.MaxDelayMS = 0, 0, 0
	for i := range e.DelaysMS {
		e.DelaysMS[i] = 0
	}
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace_topk.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("trace wire shape changed; got:\n%s\nwant:\n%s", got, want)
	}
}
