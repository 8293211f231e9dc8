package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	end := tr.StartSpan("x")
	end()
	tr.Add(NeighborRuns, 1)
	tr.SetMax(CanListMax, 5)
	tr.SetIdentity(Identity{Fingerprint: "fp"})
	tr.SetEpoch(3)
	tr.Emission()
	tr.AddDijkstra(DijkstraRun{Visits: 1})
	new(Totals).Fold(tr)
	tr.RecordSpan("y", time.Now())
	if tr.Summary() != nil {
		t.Fatal("nil trace produced a summary")
	}
	if tr.QueryID() != "" {
		t.Fatal("nil trace has a query id")
	}
}

// TestDisabledTraceZeroAlloc locks the tentpole's overhead contract:
// every instrumentation hook on a disabled (nil) trace allocates
// nothing, so the untraced enumerator hot loop pays only nil checks.
func TestDisabledTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		end := tr.StartSpan("span")
		tr.Add(NeighborRuns, 1)
		tr.SetMax(CanListMax, 7)
		tr.Emission()
		tr.AddDijkstra(DijkstraRun{Visits: 3, Relaxations: 9, HeapPushes: 4, HeapPops: 4})
		end()
	})
	if allocs != 0 {
		t.Fatalf("disabled-trace hooks allocate %v times per run, want 0", allocs)
	}
}

func TestTraceRecording(t *testing.T) {
	tr := NewTrace("q-test")
	end := tr.StartSpan("project")
	time.Sleep(time.Millisecond)
	end()
	tr.Add(NeighborRuns, 3)
	tr.Add(NeighborRuns, 2)
	tr.SetMax(CanListMax, 4)
	tr.SetMax(CanListMax, 2) // lower: ignored
	tr.SetEpoch(3)
	tr.SetIdentity(Identity{Algorithm: "comm_k", Indexed: true, Keywords: []string{"a", "b"}})
	tr.AddDijkstra(DijkstraRun{Visits: 10, Relaxations: 25, HeapPushes: 12, HeapPops: 11, RadiusCutoffs: 3})
	tr.Emission()
	tr.Emission()

	s := tr.Summary()
	if s.QueryID != "q-test" {
		t.Fatalf("query id %q", s.QueryID)
	}
	if got := s.Counter("neighbor_runs"); got != 5 {
		t.Fatalf("neighbor_runs = %d, want 5", got)
	}
	if got := s.Counter("can_list_max"); got != 4 {
		t.Fatalf("can_list_max = %d, want 4", got)
	}
	if got := s.Counter("dijkstra_visits"); got != 10 {
		t.Fatalf("dijkstra_visits = %d, want 10", got)
	}
	if got := s.Counter("dijkstra_runs"); got != 1 {
		t.Fatalf("dijkstra_runs = %d, want 1", got)
	}
	if got := s.Counter("emitted"); got != 2 {
		t.Fatalf("emitted = %d, want 2", got)
	}
	if _, zero := s.Counters["bestcore_scans"]; zero || len(s.Counters) != 9 {
		t.Fatalf("counters = %v, want the 9 non-zero ones", s.Counters)
	}
	if s.Algorithm != "comm_k" || !s.Indexed || s.Epoch != 3 || len(s.Keywords) != 2 {
		t.Fatalf("identity = %+v epoch %d", s.Identity, s.Epoch)
	}
	sp, ok := s.Span("project")
	if !ok || sp.DurMS <= 0 {
		t.Fatalf("project span = %+v ok=%v", sp, ok)
	}
	if s.Emissions == nil || s.Emissions.Count != 2 || len(s.Emissions.DelaysMS) != 2 {
		t.Fatalf("emissions = %+v", s.Emissions)
	}
	if s.Emissions.MaxDelayMS < s.Emissions.MeanDelayMS {
		t.Fatalf("max delay %v < mean %v", s.Emissions.MaxDelayMS, s.Emissions.MeanDelayMS)
	}

	// A later Summary reflects recording that happened in between.
	tr.Add(NeighborRuns, 1)
	if got := tr.Summary().Counter("neighbor_runs"); got != 6 {
		t.Fatalf("second summary neighbor_runs = %d, want 6", got)
	}

	// The summary marshals cleanly.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestTraceDelayCapAndConcurrency(t *testing.T) {
	tr := NewTrace("")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < MaxStoredDelays; i++ {
				tr.Emission()
				tr.Add(CanTuples, 1)
				tr.AddDijkstra(DijkstraRun{Visits: 1})
				tr.SetMax(CanListMax, int64(i))
			}
		}()
	}
	wg.Wait()
	s := tr.Summary()
	if s.Emissions.Count != 8*MaxStoredDelays {
		t.Fatalf("count = %d", s.Emissions.Count)
	}
	if len(s.Emissions.DelaysMS) != MaxStoredDelays {
		t.Fatalf("stored delays = %d, want cap %d", len(s.Emissions.DelaysMS), MaxStoredDelays)
	}
}

func TestContextCarriage(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr := NewTrace("q1")
	ctx := ContextWithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	if ContextWithTrace(ctx, nil) != ctx {
		t.Fatal("attaching a nil trace should return ctx unchanged")
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	// The counter table's families, fed by folding finished traces.
	var tot Totals
	tot.Register(r)
	for _, canMax := range []int64{7, 3} {
		tr := NewTrace("")
		tr.AddDijkstra(DijkstraRun{Visits: 21})
		tr.SetMax(CanListMax, canMax)
		tot.Fold(tr)
	}
	r.GaugeFunc("commdb_cache_entries", "cache entries", func() float64 { return 5 })
	r.CounterFunc("commdb_queries_started_total", "queries started", func() int64 { return 9 })
	hs := r.Histograms("commdb_query_latency_ms", "query latency", []float64{1, 10, 100}, "keywords", []string{"1", "2"})
	hs[0].Observe(0.5)
	hs[0].Observe(50)
	hs[0].Observe(5000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE commdb_dijkstra_visits_total counter",
		"commdb_dijkstra_visits_total 42",
		"commdb_dijkstra_runs_total 2",
		"# TYPE commdb_can_list_max gauge",
		"commdb_can_list_max 7",
		"commdb_cache_entries 5",
		"commdb_queries_started_total 9",
		"# TYPE commdb_query_latency_ms histogram",
		`commdb_query_latency_ms_bucket{keywords="1",le="1"} 1`,
		`commdb_query_latency_ms_bucket{keywords="1",le="10"} 1`,
		`commdb_query_latency_ms_bucket{keywords="1",le="100"} 2`,
		`commdb_query_latency_ms_bucket{keywords="1",le="+Inf"} 3`,
		`commdb_query_latency_ms_sum{keywords="1"} 5050.5`,
		`commdb_query_latency_ms_count{keywords="1"} 3`,
		// Every child is exported from registration on, observed or not.
		`commdb_query_latency_ms_bucket{keywords="2",le="+Inf"} 0`,
		`commdb_query_latency_ms_count{keywords="2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The registry's own output passes the lint it ships.
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.CounterFunc(bad, "", func() int64 { return 0 })
		}()
	}
	// Kind mismatch panics too.
	r.CounterFunc("ok_name", "", func() int64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch accepted")
			}
		}()
		r.GaugeFunc("ok_name", "", func() float64 { return 0 })
	}()
	// A histogram's label may not collide with its buckets' le.
	for _, bad := range []string{"le", "9x", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("histogram label %q accepted", bad)
				}
			}()
			r.Histograms("h_ms", "", []float64{1}, bad, []string{"a"})
		}()
	}
}

func TestLintPrometheus(t *testing.T) {
	good := "# HELP x help\n# TYPE x counter\nx 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n"
	if err := LintPrometheus(strings.NewReader(good)); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	cases := map[string]string{
		"missing TYPE":     "x 1\n",
		"duplicate TYPE":   "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"duplicate sample": "# TYPE x counter\nx 1\nx 2\n",
		"bad name":         "# TYPE x counter\nx 1\n# TYPE 9y counter\n",
		"bad value":        "# TYPE x counter\nx one\n",
		"blank":            "",
	}
	for name, payload := range cases {
		if err := LintPrometheus(strings.NewReader(payload)); err == nil {
			t.Fatalf("%s: lint accepted %q", name, payload)
		}
	}
}

// TestLintPrometheusLabels: the lint parses labeled samples in full —
// validating names, quoting and escaping — and detects duplicate label
// sets even when the label order differs.
func TestLintPrometheusLabels(t *testing.T) {
	good := strings.Join([]string{
		"# TYPE c counter",
		`c{indexed="true",keywords="2"} 1`,
		`c{indexed="false",keywords="2"} 3`,
		`c{indexed="true",keywords="4+"} 2`,
		`c{msg="a \"quoted\" value with \\ and \n"} 4`,
		`c 9`, // the bare sample is distinct from every labeled one
		"",
	}, "\n")
	if err := LintPrometheus(strings.NewReader(good)); err != nil {
		t.Fatalf("good labeled exposition rejected: %v", err)
	}

	cases := map[string]string{
		"reordered duplicate label set": "# TYPE c counter\n" +
			`c{a="1",b="2"} 1` + "\n" + `c{b="2",a="1"} 2` + "\n",
		"repeated label in one sample": "# TYPE c counter\n" + `c{a="1",a="2"} 1` + "\n",
		"invalid label name":           "# TYPE c counter\n" + `c{9bad="1"} 1` + "\n",
		"unquoted label value":         "# TYPE c counter\n" + `c{a=1} 1` + "\n",
		"invalid escape":               "# TYPE c counter\n" + `c{a="\t"} 1` + "\n",
		"unterminated value":           "# TYPE c counter\n" + `c{a="1} 1` + "\n",
		"missing equals":               "# TYPE c counter\n" + `c{a} 1` + "\n",
	}
	for name, payload := range cases {
		if err := LintPrometheus(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: lint accepted %q", name, payload)
		}
	}

	// A '}' inside a quoted value must not truncate the label set.
	brace := "# TYPE c counter\n" + `c{a="x}y"} 1` + "\n"
	if err := LintPrometheus(strings.NewReader(brace)); err != nil {
		t.Fatalf("brace-in-value sample rejected: %v", err)
	}
}

// TestRegistryLabeledFamilies: labeled scrape-time families render with
// escaped values and mix cleanly with plain metrics.
func TestRegistryLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounterFunc("commdb_op_total", "ops per kind", func() []LabeledSample {
		return []LabeledSample{
			{Labels: []Label{{Name: "indexed", Value: "true"}, {Name: "keywords", Value: "2"}}, Value: 7},
			{Labels: []Label{{Name: "indexed", Value: "false"}, {Name: "keywords", Value: `odd"value`}}, Value: 1},
		}
	})
	r.LabeledGaugeFunc("commdb_op_p50_ms", "p50 per kind", func() []LabeledSample {
		return []LabeledSample{{Labels: []Label{{Name: "indexed", Value: "true"}, {Name: "keywords", Value: "2"}}, Value: 1.5}}
	})
	r.CounterFunc("commdb_plain_total", "plain", func() int64 { return 3 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE commdb_op_total counter",
		`commdb_op_total{indexed="true",keywords="2"} 7`,
		`commdb_op_total{indexed="false",keywords="odd\"value"} 1`,
		`commdb_op_p50_ms{indexed="true",keywords="2"} 1.5`,
		"commdb_plain_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v\n%s", err, out)
	}

	// Registering a labeled family over an existing plain metric panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("labeled re-registration over a plain counter accepted")
			}
		}()
		r.LabeledCounterFunc("commdb_plain_total", "", func() []LabeledSample { return nil })
	}()
}

func BenchmarkTraceEmission(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *Trace
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Emission()
			tr.AddDijkstra(DijkstraRun{Visits: 5, Relaxations: 20})
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := NewTrace("bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Emission()
			tr.AddDijkstra(DijkstraRun{Visits: 5, Relaxations: 20})
		}
	})
}
