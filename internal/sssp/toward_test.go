package sssp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"commdb/internal/graph"
)

// mixedWeight draws an edge or node weight from magnitudes that stress
// floating-point association: zero, subnormal-tiny, inexact decimals
// and values twenty orders of magnitude apart.
func mixedWeight(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 5e-324 * float64(rng.Intn(4)+1)
	case 2:
		return 1e-9 * rng.Float64()
	case 3:
		return []float64{0.1, 0.2, 0.3, 0.7, 1.0 / 3}[rng.Intn(5)]
	case 4:
		return 1e9 * rng.Float64()
	case 5:
		return 1e11 + rng.Float64()
	default:
		return float64(rng.Intn(5) + 1)
	}
}

func mixedGraph(t *testing.T, rng *rand.Rand, n, m int, nodeWeights bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		id := b.AddNode("")
		if nodeWeights && rng.Intn(3) == 0 {
			b.SetNodeWeight(id, mixedWeight(rng))
		}
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), mixedWeight(rng))
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomSeeds(rng *rand.Rand, n, k int) []Seed {
	out := make([]Seed, k)
	for i := range out {
		out[i] = Seed{Node: graph.NodeID(rng.Intn(n))}
	}
	return out
}

// TestRunTowardExact: on graphs with zero, tiny and wildly mixed
// weights, and Rmax set exactly at a computed two-sided sum, RunToward
// settles every node with ds + dt ≤ Rmax with the distance, source and
// via hop of the unpruned Run, and so keeps the same two-sided set. A
// tail of one run per target settles exactly what the tail of the one
// run from all targets does.
func TestRunTowardExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pruned := 0
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40) + 2
		g := mixedGraph(t, rng, n, n*(1+rng.Intn(4)), trial%2 == 1)
		ws := NewWorkspace(g)
		src := randomSeeds(rng, n, rng.Intn(3)+1)
		dst := randomSeeds(rng, n, rng.Intn(3)+1)

		// Rmax at an exact sum: ds(u) + dt(u) of a node both sides reach,
		// or one side's distance alone.
		fwd, rev := NewResult(n), NewResult(n)
		ws.Run(Forward, src, math.Inf(1), fwd)
		ws.Run(Reverse, dst, math.Inf(1), rev)
		var sums []float64
		for _, u := range fwd.Visited() {
			ds, _ := fwd.Dist(u)
			sums = append(sums, ds)
			if dt, ok := rev.Dist(u); ok {
				sums = append(sums, ds+dt)
			}
		}
		if len(sums) == 0 {
			continue
		}
		rmax := sums[rng.Intn(len(sums))]

		tail, ref, got := NewResult(n), NewResult(n), NewResult(n)
		ws.Run(Reverse, dst, Widen(rmax, n), tail)
		ws.Run(Forward, src, rmax, ref)
		var one, split Tail
		one.Reset(n, tail)
		ws.RunToward(Forward, src, rmax, got, &one)
		if got.Len() < ref.Len() {
			pruned++
		}
		var runs []*Result
		for _, s := range dst {
			r := NewResult(n)
			ws.Run(Reverse, []Seed{s}, Widen(rmax, n), r)
			runs = append(runs, r)
		}
		split.Reset(n, runs...)
		viaSplit := NewResult(n)
		ws.RunToward(Forward, src, rmax, viaSplit, &split)
		if !slices.Equal(viaSplit.Visited(), got.Visited()) {
			t.Fatalf("trial %d: a tail of %d runs settled %v, the one run %v", trial, len(dst), viaSplit.Visited(), got.Visited())
		}
		kept := func(r *Result, u graph.NodeID) bool {
			ds, ok := r.Dist(u)
			dt, ok2 := tail.Dist(u)
			return ok && ok2 && ds+dt <= rmax
		}
		for v := 0; v < n; v++ {
			u := graph.NodeID(v)
			if kept(ref, u) != kept(got, u) {
				t.Fatalf("trial %d rmax %v node %d: kept %v unpruned, %v pruned", trial, rmax, u, kept(ref, u), kept(got, u))
			}
			if !kept(ref, u) {
				continue
			}
			dr, _ := ref.Dist(u)
			dg, _ := got.Dist(u)
			if dr != dg || ref.Src(u) != got.Src(u) || ref.Via(u) != got.Via(u) {
				t.Fatalf("trial %d node %d: (%v src %d via %d) unpruned, (%v src %d via %d) pruned",
					trial, u, dr, ref.Src(u), ref.Via(u), dg, got.Src(u), got.Via(u))
			}
		}
	}
	if pruned < 300 {
		t.Fatalf("only %d of 3000 trials pruned anything; the generator lost coverage", pruned)
	}
}

// TestPoolRecyclesResultsAndTallies: a pooled Result comes back empty
// and answers like a fresh one; a pooled Tally comes back all zeros;
// sizes never mix.
func TestPoolRecyclesResultsAndTallies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(t, rng, 120, 500)
	n := g.NumNodes()
	pool := NewPoolFor(n)
	ws := NewWorkspace(g)

	r := pool.GetResult(n)
	ws.RunFromNodes(Forward, []graph.NodeID{0, 7}, 20, r)
	tally := pool.GetTally(n)
	tally.Add(r)
	tally.Remove(r)
	for v := range tally.Count {
		if tally.Count[v] != 0 || tally.Sum[v] != 0 {
			t.Fatalf("node %d: tally (%d, %v) after Add+Remove", v, tally.Count[v], tally.Sum[v])
		}
	}
	pool.PutResult(r)
	pool.PutTally(tally)

	for i := 0; i < 4; i++ {
		r2 := pool.GetResult(n)
		if r2.Len() != 0 {
			t.Fatalf("pooled result holds %d nodes", r2.Len())
		}
		for v := 0; v < n; v++ {
			if r2.Contains(graph.NodeID(v)) {
				t.Fatalf("pooled result still contains node %d", v)
			}
		}
		ws.RunFromNodes(Reverse, []graph.NodeID{graph.NodeID(i)}, 15, r2)
		fresh := NewResult(n)
		NewWorkspace(g).RunFromNodes(Reverse, []graph.NodeID{graph.NodeID(i)}, 15, fresh)
		resultEqual(t, g, r2, fresh)
		pool.PutResult(r2)
	}
	if small := pool.GetResult(n - 1); len(small.pos) != n-1 {
		t.Fatalf("GetResult(%d) returned size %d", n-1, len(small.pos))
	}
	if small := pool.GetTally(n - 1); len(small.Count) != n-1 || len(small.Sum) != n-1 {
		t.Fatalf("GetTally(%d) returned size %d", n-1, len(small.Count))
	}

	var nilPool *Pool
	if r := nilPool.GetResult(n); r == nil || len(r.pos) != n {
		t.Fatal("nil pool did not allocate a result")
	}
	nilPool.PutResult(NewResult(n)) // must not panic
	nilPool.PutTally(NewTally(n))
}
