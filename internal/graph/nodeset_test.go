package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAppendInducedEdgesMatchesInduced: on graphs with hubs (one node
// linked to and from most others) and parallel edges, re-inducing a
// node list's edges one node at a time with AppendInducedEdges gives
// exactly Induced's edges, parallel ones included, in its order.
func TestAppendInducedEdgesMatchesInduced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		b := NewBuilder()
		for v := 0; v < n; v++ {
			b.AddNode("v")
		}
		hub := NodeID(rng.Intn(n))
		for v := 0; v < n; v++ {
			if rng.Intn(4) != 0 {
				b.AddEdge(hub, NodeID(v), 1)
				b.AddEdge(NodeID(v), hub, 2)
			}
		}
		for i := 0; i < n*2; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			b.AddEdge(u, v, float64(rng.Intn(3)))
			if rng.Intn(5) == 0 {
				b.AddEdge(u, v, 7) // parallel
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var nodes []NodeID
		for v := 0; v < n; v++ {
			if NodeID(v) == hub || rng.Intn(1+trial%20) == 0 {
				nodes = append(nodes, NodeID(v))
			}
		}
		sub, err := Induced(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		var want []EdgePair
		for lu := 0; lu < sub.G.NumNodes(); lu++ {
			for _, e := range sub.G.OutEdges(NodeID(lu)) {
				want = append(want, EdgePair{From: sub.ToParent[lu], To: sub.ToParent[e.To]})
			}
		}
		var got []EdgePair
		for _, u := range nodes {
			got = AppendInducedEdges(got, g, u, nodes)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: AppendInducedEdges %v, Induced %v", trial, got, want)
		}
	}
}
