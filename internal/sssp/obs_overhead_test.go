package sssp

// Trace-overhead guarantees at the Dijkstra layer: with tracing
// disabled (the default) the instrumented hot path allocates nothing,
// and with tracing enabled the only extra cost is one flush per run.

import (
	"testing"

	"commdb/internal/graph"
	"commdb/internal/obs"
)

// TestRunDisabledTraceZeroAlloc: a warmed Workspace runs the fully
// instrumented Dijkstra with tracing disabled at zero allocations per
// run — the disabled path must stay free, since every query pays it.
func TestRunDisabledTraceZeroAlloc(t *testing.T) {
	g := overheadGraph(t, 2000, 8000)
	ws := NewWorkspace(g)
	res := NewResult(g.NumNodes())
	seeds := []Seed{{Node: 0}, {Node: 311}, {Node: 622}}

	// Warm the scratch arrays and the heap so steady-state runs reuse
	// capacity.
	ws.Run(Forward, seeds, 8, res)

	if avg := testing.AllocsPerRun(100, func() {
		ws.Run(Forward, seeds, 8, res)
	}); avg != 0 {
		t.Fatalf("untraced Run allocates %.1f times per run, want 0", avg)
	}
}

// TestRunTowardDisabledTraceZeroAlloc: the pruned run is the same loop
// with one more check per relaxation, and allocates nothing either.
func TestRunTowardDisabledTraceZeroAlloc(t *testing.T) {
	g := overheadGraph(t, 2000, 8000)
	ws := NewWorkspace(g)
	res := NewResult(g.NumNodes())
	tail := NewResult(g.NumNodes())
	seeds := []Seed{{Node: 0}, {Node: 311}, {Node: 622}}
	ws.Run(Reverse, []Seed{{Node: 5}, {Node: 933}}, Widen(8, g.NumNodes()), tail)

	ws.RunToward(Forward, seeds, 8, res, tail)

	if avg := testing.AllocsPerRun(100, func() {
		ws.RunToward(Forward, seeds, 8, res, tail)
	}); avg != 0 {
		t.Fatalf("untraced RunToward allocates %.1f times per run, want 0", avg)
	}
}

// TestRunEnabledTraceAllocBound: enabling tracing must not introduce
// per-edge or per-node allocations — after the first flush has
// populated the counter map, further runs stay allocation-free too.
func TestRunEnabledTraceAllocBound(t *testing.T) {
	g := overheadGraph(t, 2000, 8000)
	ws := NewWorkspace(g)
	res := NewResult(g.NumNodes())
	seeds := []Seed{{Node: 0}, {Node: 311}, {Node: 622}}

	tr := obs.NewTrace("overhead")
	ws.SetTrace(tr)
	ws.Run(Forward, seeds, 8, res) // warm arrays + counter map

	if avg := testing.AllocsPerRun(100, func() {
		ws.Run(Forward, seeds, 8, res)
	}); avg != 0 {
		t.Fatalf("traced Run allocates %.1f times per run after warm-up, want 0", avg)
	}
	if tr.Summary().Counter("dijkstra_runs") < 100 {
		t.Fatal("trace did not record the runs")
	}
}

func overheadGraph(tb testing.TB, n, m int) *graph.Graph {
	tb.Helper()
	bld := graph.NewBuilder()
	for i := 0; i < n; i++ {
		bld.AddNode("")
	}
	for i := 0; i < m; i++ {
		// Deterministic pseudo-random edges without math/rand, so the
		// test is hermetic.
		from := graph.NodeID((i * 2654435761) % n)
		to := graph.NodeID((i*40503 + 17) % n)
		bld.AddEdge(from, to, float64(i%7+1))
	}
	g, err := bld.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkRunTraceOff/On measure the tracing tax on the Dijkstra hot
// path; compare with benchstat. The design target is "off is free, on
// is one flush per run".
func BenchmarkRunTraceOff(b *testing.B) {
	benchmarkRunTrace(b, nil)
}

func BenchmarkRunTraceOn(b *testing.B) {
	benchmarkRunTrace(b, obs.NewTrace("bench"))
}

func benchmarkRunTrace(b *testing.B, tr *obs.Trace) {
	g := benchGraph(b, 10000, 40000)
	ws := NewWorkspace(g)
	ws.SetTrace(tr)
	res := NewResult(g.NumNodes())
	seeds := []graph.NodeID{0, 311, 622, 933}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.RunFromNodes(Forward, seeds, 8, res)
	}
}
