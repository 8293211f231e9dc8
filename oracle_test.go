package commdb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"commdb/internal/core"
	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// oracleGraph is a random graph of n nodes over the terms a, b, c,
// with zero, tiny and wildly mixed edge weights.
func oracleGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	b := graph.NewBuilder()
	terms := []string{"a", "b", "c"}
	for v := 0; v < n; v++ {
		var ts []string
		for _, term := range terms {
			if rng.Intn(4) == 0 {
				ts = append(ts, term)
			}
		}
		b.AddNode(fmt.Sprint("v", v), ts...)
	}
	weights := []float64{0, 1e-9, 0.5, 1, 1, 2, 3, 1e3}
	for i := 0; i < n*(1+rng.Intn(3)); i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		b.AddEdge(u, v, weights[rng.Intn(len(weights))])
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlainSearcherMatchesDirectEngine: a plain Searcher, which now
// answers every query on its projection G_P, returns exactly what the
// engine run directly on G_D returns — the same communities in the same
// order, with the same cost bits, nodes and edges — on random graphs
// with zero, tiny and mixed weights and Rmax at an exact path sum, for
// both algorithms, the sum and max rankers and parallelism 1 and 4.
func TestPlainSearcherMatchesDirectEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	rankers := []Ranker{SumRanker(), MaxRanker()}
	compared := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		g := oracleGraph(t, rng, n)
		kws := []string{"a", "b", "c"}[:2+rng.Intn(2)]
		// Rmax at an exact path sum: a distance a run actually settled,
		// summed from the seed end (a forward run from a random node) or
		// from the keyword end (the largest of a center's distances to
		// the keyword sets, so that center sits exactly on the radius).
		var rmax float64
		if trial%3 == 2 {
			rmax = centerRadius(t, g, kws, rng)
		} else {
			res := sssp.NewResult(n)
			sssp.NewWorkspace(g).RunFromNodes(sssp.Forward, []graph.NodeID{graph.NodeID(rng.Intn(n))}, math.Inf(1), res)
			if vs := res.Visited(); len(vs) > 0 {
				rmax, _ = res.Dist(vs[rng.Intn(len(vs))])
			}
		}
		for _, par := range []int{1, 4} {
			compared += compareWithDirectEngine(t, g, kws, rmax, rankers[trial%2], WithParallelism(par))
		}
	}
	if compared < 500 {
		t.Fatalf("only %d communities compared; the generator lost coverage", compared)
	}
}

// TestProjectionRoundingBoundary: a center whose distance, summed
// from the keyword end, is exactly Rmax, while the same path summed
// from the center end is one ulp longer. The path c → x1 … x6 → k has
// six 1e-9 edges and then a 1e3 edge; c carries "a" and k carries "b".
// The direct engine makes c a center with k in its core, so the
// projection, plain or indexed, must keep k although its forward
// distance exceeds Rmax.
func TestProjectionRoundingBoundary(t *testing.T) {
	b := graph.NewBuilder()
	c := b.AddNode("c", "a")
	prev := c
	for i := 1; i <= 6; i++ {
		x := b.AddNode(fmt.Sprint("x", i))
		b.AddEdge(prev, x, 1e-9)
		prev = x
	}
	k := b.AddNode("k", "b")
	b.AddEdge(prev, k, 1e3)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	rev, fwd := sssp.NewResult(g.NumNodes()), sssp.NewResult(g.NumNodes())
	ws := sssp.NewWorkspace(g)
	ws.RunFromNodes(sssp.Reverse, []graph.NodeID{k}, math.Inf(1), rev)
	rmax, _ := rev.Dist(c)
	ws.RunFromNodes(sssp.Forward, []graph.NodeID{c}, math.Inf(1), fwd)
	if dk, _ := fwd.Dist(k); dk <= rmax {
		t.Fatalf("forward sum %v ≤ reverse sum %v: the graph no longer straddles the boundary", dk, rmax)
	}
	for _, opts := range [][]Option{
		{WithParallelism(1)}, {WithParallelism(4)}, {WithParallelism(1), WithIndex(rmax)},
	} {
		if compareWithDirectEngine(t, g, []string{"a", "b"}, rmax, SumRanker(), opts...) == 0 {
			t.Fatal("the direct engine found no community; the case lost its point")
		}
	}
}

// centerRadius returns the largest distance at which some node settled
// by every keyword's full-set run sees one of the sets, or 0.
func centerRadius(t *testing.T, g *Graph, kws []string, rng *rand.Rand) float64 {
	t.Helper()
	n := g.NumNodes()
	ws := sssp.NewWorkspace(g)
	far := make([]float64, n)
	hits := make([]int, n)
	for _, kw := range kws {
		seeds, err := core.KeywordNodes(g, nil, kw)
		if err != nil {
			t.Fatal(err)
		}
		res := sssp.NewResult(n)
		ws.RunFromNodes(sssp.Reverse, seeds, math.Inf(1), res)
		for _, v := range res.Visited() {
			d, _ := res.Dist(v)
			far[v] = max(far[v], d)
			hits[v]++
		}
	}
	var centers []float64
	for v, h := range hits {
		if h == len(kws) {
			centers = append(centers, far[v])
		}
	}
	if len(centers) == 0 {
		return 0
	}
	return centers[rng.Intn(len(centers))]
}

// compareWithDirectEngine runs both algorithms for one query on a
// Searcher opened with opts and on the engine over G_D, failing t at the first
// difference, and returns how many communities it compared.
func compareWithDirectEngine(t *testing.T, g *Graph, kws []string, rmax float64, ranker Ranker, opts ...Option) int {
	t.Helper()
	compared := 0
	s := mustOpen(t, g, opts...)
	for _, algo := range []Algorithm{AlgoAll, AlgoTopK} {
		q := Query{Keywords: kws, Rmax: rmax, Ranker: ranker}
		eng, err := core.NewEngine(g, nil, kws, rmax)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetRanker(ranker)
		var want interface {
			Next() (*core.Community, bool)
		}
		if algo == AlgoAll {
			want = core.NewAll(eng)
		} else {
			want = core.NewTopK(eng)
		}
		it, err := s.SearchCtx(t.Context(), algo, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			w, wok := want.Next()
			c, ok := it.Next()
			if wok != ok {
				t.Fatalf("%v rmax %v: result %d present on G_D %v, on the Searcher %v", algo, rmax, i, wok, ok)
			}
			if !ok {
				break
			}
			if !slices.Equal(c.Core, w.Core) || math.Float64bits(c.Cost) != math.Float64bits(w.Cost) ||
				!slices.Equal(c.Nodes, w.Nodes) || !slices.Equal(c.Edges, w.Edges) {
				t.Fatalf("%v rmax %v result %d:\nSearcher core %v cost %v nodes %v edges %v\nG_D      core %v cost %v nodes %v edges %v",
					algo, rmax, i, c.Core, c.Cost, c.Nodes, c.Edges, w.Core, w.Cost, w.Nodes, w.Edges)
			}
			compared++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	return compared
}
