package sssp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"commdb/internal/graph"
)

// resultEqual compares two runs node by node.
func resultEqual(t *testing.T, g *graph.Graph, a, b *Result) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("settled %d vs %d nodes", a.Len(), b.Len())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		da, oka := a.Dist(id)
		db, okb := b.Dist(id)
		if oka != okb || (oka && da != db) {
			t.Fatalf("node %d: (%v,%v) vs (%v,%v)", v, da, oka, db, okb)
		}
		if oka && a.Src(id) != b.Src(id) {
			t.Fatalf("node %d: src %d vs %d", v, a.Src(id), b.Src(id))
		}
	}
}

// TestPoolReuseNoLeakage runs one query's Dijkstra on a pooled
// workspace, recycles it, and asserts the next query's run is
// byte-identical to a fresh workspace's: no tentative distance, source
// or via entry of the first run may leak into the second.
func TestPoolReuseNoLeakage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 200, 900)
	pool := NewPoolFor(g.NumNodes())

	// Query A: saturate the workspace's scratch from many seeds.
	wsA := pool.Get(g)
	genA := wsA.Generation()
	resA := NewResult(g.NumNodes())
	seedsA := []graph.NodeID{0, 3, 5, 9, 11}
	wsA.RunFromNodes(Reverse, seedsA, 30, resA)
	if resA.Len() == 0 {
		t.Fatal("query A settled nothing; test graph too sparse")
	}
	pool.Put(wsA)

	// Query B on the recycled workspace, different seeds and radius.
	wsB := pool.Get(g)
	if wsB.Generation() <= genA && wsB == wsA {
		t.Fatalf("generation did not advance on reuse: %d -> %d", genA, wsB.Generation())
	}
	resB := NewResult(g.NumNodes())
	seedsB := []graph.NodeID{42}
	wsB.RunFromNodes(Forward, seedsB, 12, resB)

	fresh := NewResult(g.NumNodes())
	NewWorkspace(g).RunFromNodes(Forward, seedsB, 12, fresh)
	resultEqual(t, g, resB, fresh)
}

// TestPoolRebindAcrossGraphs recycles one workspace across graphs of
// different sizes — the projected-subgraph pattern, where every query
// binds the pool's workspaces to a fresh small graph — and checks each
// run against a fresh workspace's.
func TestPoolRebindAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := randomGraph(t, rng, 300, 1200)
	small := randomGraph(t, rng, 40, 200)
	pool := NewPoolFor(big.NumNodes())

	ws := pool.Get(big)
	res := NewResult(big.NumNodes())
	ws.RunFromNodes(Reverse, []graph.NodeID{1, 2, 3}, 25, res)
	pool.Put(ws)

	// Shrink: bind to the small graph. The retained stamps are stale but
	// epoch-superseded.
	ws = pool.Get(small)
	resSmall := NewResult(small.NumNodes())
	ws.RunFromNodes(Forward, []graph.NodeID{0}, 18, resSmall)
	freshSmall := NewResult(small.NumNodes())
	NewWorkspace(small).RunFromNodes(Forward, []graph.NodeID{0}, 18, freshSmall)
	resultEqual(t, small, resSmall, freshSmall)
	pool.Put(ws)

	// Grow again: back to the big graph within (or beyond) capacity.
	ws = pool.Get(big)
	resBig := NewResult(big.NumNodes())
	ws.RunFromNodes(Reverse, []graph.NodeID{7}, 20, resBig)
	freshBig := NewResult(big.NumNodes())
	NewWorkspace(big).RunFromNodes(Reverse, []graph.NodeID{7}, 20, freshBig)
	resultEqual(t, big, resBig, freshBig)
	pool.Put(ws)
}

// TestPoolConcurrentGet hammers one pool from many goroutines, each
// verifying its run against an oracle distance, so a workspace handed
// to two goroutines at once (the leakage failure mode) is caught by
// the race detector and by wrong distances.
func TestPoolConcurrentGet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(t, rng, 120, 500)
	oracle := floyd(g, false) // oracle[v][seed] = dist(v, seed), the Reverse semantics
	pool := NewPoolFor(g.NumNodes())

	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		seed := graph.NodeID(w % g.NumNodes())
		go func() {
			res := NewResult(g.NumNodes())
			for iter := 0; iter < 50; iter++ {
				ws := pool.Get(g)
				ws.RunFromNodes(Reverse, []graph.NodeID{seed}, 40, res)
				for _, v := range res.Visited() {
					d, _ := res.Dist(v)
					if want := oracle[v][seed]; math.Abs(d-want) > 1e-9 {
						done <- fmt.Errorf("node %d: dist %v, oracle %v", v, d, want)
						return
					}
				}
				pool.Put(ws)
			}
			done <- nil
		}()
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNilPool asserts a nil pool degrades to plain allocation.
func TestNilPool(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(t, rng, 20, 60)
	var pool *Pool
	ws := pool.Get(g)
	if ws == nil || ws.Graph() != g {
		t.Fatal("nil pool did not allocate a bound workspace")
	}
	pool.Put(ws) // must not panic
}
