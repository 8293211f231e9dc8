package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// mixedKeywordGraph is randomKeywordGraph with weights that stress
// floating-point association: zero, subnormal-tiny, inexact decimals,
// magnitudes twenty orders apart, and (when nodeWeights) node weights
// drawn the same way.
func mixedKeywordGraph(t *testing.T, rng *rand.Rand, n, m int, nodeWeights bool) (*graph.Graph, []string) {
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
		if nodeWeights && rng.Intn(3) == 0 {
			b.SetNodeWeight(id, weight())
		}
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), weight())
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g, kws
}

// unprunedCommunity is Algorithm 4 with every pass an unpruned Run to
// Rmax: the reference the pruned forward pass must reproduce.
func unprunedCommunity(g *graph.Graph, c Core, rmax float64) (nodes []graph.NodeID, edges []graph.EdgePair) {
	ws := sssp.NewWorkspace(g)
	n := g.NumNodes()
	knodes := distinctNodes(c)
	per := make([]*sssp.Result, len(knodes))
	for j, kn := range knodes {
		per[j] = sssp.NewResult(n)
		ws.RunFromNodes(sssp.Reverse, []graph.NodeID{kn}, rmax, per[j])
	}
	var centers []graph.NodeID
	for v := 0; v < n; v++ {
		all := true
		for _, r := range per {
			all = all && r.Contains(graph.NodeID(v))
		}
		if all {
			centers = append(centers, graph.NodeID(v))
		}
	}
	if len(centers) == 0 {
		return knodes, nil
	}
	fwd, rev := sssp.NewResult(n), sssp.NewResult(n)
	ws.RunFromNodes(sssp.Forward, centers, rmax, fwd)
	ws.RunFromNodes(sssp.Reverse, knodes, rmax, rev)
	in := func(u graph.NodeID) bool {
		ds, ok := fwd.Dist(u)
		dt, ok2 := rev.Dist(u)
		return ok && ok2 && ds+dt <= rmax
	}
	for v := 0; v < n; v++ {
		if in(graph.NodeID(v)) {
			nodes = append(nodes, graph.NodeID(v))
		}
	}
	for _, u := range nodes {
		for _, e := range g.OutEdges(u) {
			if in(e.To) {
				edges = append(edges, graph.EdgePair{From: u, To: e.To})
			}
		}
	}
	return nodes, edges
}

// exactRmax draws a radius equal to a computed path sum of core c's
// community without a radius: a two-sided sum ds(u) + dt(u), or one
// side's distance, from the nodes that reach every core node toward
// the core nodes.
func exactRmax(g *graph.Graph, rng *rand.Rand, c Core) float64 {
	inf := math.Inf(1)
	n := g.NumNodes()
	ws := sssp.NewWorkspace(g)
	knodes := distinctNodes(c)
	rev := sssp.NewResult(n)
	cnt := make([]int, n)
	for _, kn := range knodes {
		ws.RunFromNodes(sssp.Reverse, []graph.NodeID{kn}, inf, rev)
		for _, v := range rev.Visited() {
			cnt[v]++
		}
	}
	var centers []graph.NodeID
	for v, k := range cnt {
		if k == len(knodes) {
			centers = append(centers, graph.NodeID(v))
		}
	}
	fwd := sssp.NewResult(n)
	ws.RunFromNodes(sssp.Forward, centers, inf, fwd)
	ws.RunFromNodes(sssp.Reverse, knodes, inf, rev)
	sums := []float64{float64(rng.Intn(6) + 1)}
	for _, u := range fwd.Visited() {
		ds, _ := fwd.Dist(u)
		if dt, ok := rev.Dist(u); ok {
			sums = append(sums, ds+dt, ds+dt, ds, dt)
		}
	}
	return sums[rng.Intn(len(sums))]
}

// TestGetCommunityPrunedDifferential: on graphs with zero, tiny and
// wildly mixed weights, with Rmax set exactly at path sums, the
// community GetCommunity materializes with its pruned forward pass is,
// node for node and edge for edge, the one unpruned passes give — for
// the cores COMM-k emits and for arbitrary (possibly uncentred) cores.
func TestGetCommunityPrunedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	checked := 0
	for trial := 0; trial < 2000; trial++ {
		g, kws := mixedKeywordGraph(t, rng, rng.Intn(40)+5, rng.Intn(120)+20, trial%2 == 1)
		query := kws[:rng.Intn(len(kws))+1]
		wide, err := NewEngine(g, nil, query, 1e30)
		if err != nil {
			t.Fatal(err)
		}
		if !wide.HasAllKeywords() {
			continue
		}
		var cores []Core
		it := NewTopK(wide)
		for k := 0; k < 3; k++ {
			cc, ok := it.NextCore()
			if !ok {
				break
			}
			cores = append(cores, cc.Core)
		}
		for k := 0; k < 2; k++ {
			c := make(Core, len(query))
			for i := range c {
				vi := wide.KeywordNodes(i)
				c[i] = vi[rng.Intn(len(vi))]
			}
			cores = append(cores, c)
		}
		for _, c := range cores {
			rmax := exactRmax(g, rng, c)
			e, err := NewEngine(g, nil, query, rmax)
			if err != nil {
				t.Fatal(err)
			}
			got := e.GetCommunity(c)
			nodes, edges := unprunedCommunity(g, c, rmax)
			if !slices.Equal(got.Nodes, nodes) || !slices.Equal(got.Edges, edges) {
				t.Fatalf("trial %d rmax %v core %v:\npruned   nodes %v edges %v\nunpruned nodes %v edges %v",
					trial, rmax, c, got.Nodes, got.Edges, nodes, edges)
			}
			checked++
		}
	}
	if checked < 5000 {
		t.Fatalf("only %d communities checked; the generator lost coverage", checked)
	}
}
