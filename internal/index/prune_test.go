package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"commdb/internal/fulltext"
	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// mixedOracleGraph is oracleGraph with weights that stress
// floating-point association: zero, subnormal-tiny, inexact decimals
// and magnitudes twenty orders apart, on edges and (odd trials) nodes.
func mixedOracleGraph(t *testing.T, rng *rand.Rand, trial int) (*graph.Graph, []string) {
	t.Helper()
	weight := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return 5e-324 * float64(rng.Intn(4)+1)
		case 2:
			return []float64{0.1, 0.2, 0.3, 0.7, 1.0 / 3}[rng.Intn(5)]
		case 3:
			return 1e-9 * rng.Float64()
		case 4:
			return 1e9 * rng.Float64()
		default:
			return float64(rng.Intn(5) + 1)
		}
	}
	n := rng.Intn(40) + 4
	kws := []string{"k0", "k1", "k2"}
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		var terms []string
		for _, kw := range kws {
			if rng.Intn(4) == 0 {
				terms = append(terms, kw)
			}
		}
		id := b.AddNode(fmt.Sprintf("n%d", i), terms...)
		if trial%2 == 1 && rng.Intn(3) == 0 {
			b.SetNodeWeight(id, weight())
		}
	}
	for i := 0; i < n*(1+rng.Intn(3)); i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), weight())
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g, kws
}

// exactQueryRmax draws a radius equal to a computed path sum of the
// query on g without a radius: ds(u) + dt(u), or one side alone, from
// the nodes that reach a carrier of every keyword toward all carriers.
func exactQueryRmax(g *graph.Graph, rng *rand.Rand, query []string) float64 {
	inf := math.Inf(1)
	n := g.NumNodes()
	ft := fulltext.Build(g)
	ws := sssp.NewWorkspace(g)
	res := sssp.NewResult(n)
	cnt := make([]int, n)
	var carriers []graph.NodeID
	for _, kw := range query {
		w := ft.Nodes(fulltext.Tokenize(kw)[0])
		carriers = append(carriers, w...)
		ws.RunFromNodes(sssp.Reverse, w, inf, res)
		for _, v := range res.Visited() {
			cnt[v]++
		}
	}
	var centers []graph.NodeID
	for v, k := range cnt {
		if k == len(query) {
			centers = append(centers, graph.NodeID(v))
		}
	}
	fwd := sssp.NewResult(n)
	ws.RunFromNodes(sssp.Forward, centers, inf, fwd)
	ws.RunFromNodes(sssp.Reverse, carriers, inf, res)
	sums := []float64{float64(rng.Intn(6) + 1)}
	for _, u := range fwd.Visited() {
		ds, _ := fwd.Dist(u)
		if dt, ok := res.Dist(u); ok {
			sums = append(sums, ds+dt, ds+dt, ds, dt)
		}
	}
	return sums[rng.Intn(len(sums))]
}

// TestProjectPrunedDifferential: on graphs with zero, tiny and wildly
// mixed weights, with Rmax set exactly at path sums (and the index
// built at exactly that radius or above it), the projection whose
// forward pass runs toward the reverse one is the oracle's, whose
// passes are unpruned.
func TestProjectPrunedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1606))
	nonEmpty := 0
	for trial := 0; trial < 600; trial++ {
		g, kws := mixedOracleGraph(t, rng, trial)
		query := kws[:rng.Intn(len(kws))+1]
		rmax := exactQueryRmax(g, rng, query)
		R := rmax
		if rng.Intn(2) == 0 {
			R = 2 * rmax
		}
		ix, err := Build(g, BuildOptions{R: R})
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d query %v rmax %v", trial, query, rmax)
		want, err := oracleProject(ix, query, rmax)
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		got, err := ix.Project(query, rmax)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameProjection(t, what, got.Sub, want)
		if want.G.NumNodes() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 300 {
		t.Fatalf("only %d non-empty projections; the generator lost coverage", nonEmpty)
	}
}
