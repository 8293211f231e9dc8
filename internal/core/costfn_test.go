package core

import (
	"math/rand"
	"testing"
)

// TestMaxCostMatchesNaiveRandom: under the max-distance cost function,
// PDall still matches the naive oracle's core set and costs, and PDk
// still emits in non-decreasing (max-)cost order — the paper's claim
// that the algorithms do not depend on a specific cost function.
func TestMaxCostMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(20) + 4
		g, kws := randomKeywordGraph(t, rng, n, n*3, 2)
		rmax := float64(rng.Intn(8) + 2)

		e1, err := NewEngine(g, nil, kws, rmax)
		if err != nil {
			t.Fatal(err)
		}
		e1.SetRanker(MaxRanker())
		naive := EnumerateNaive(e1)
		want := coreSet(t, naive)

		e2, _ := NewEngine(g, nil, kws, rmax)
		e2.SetRanker(MaxRanker())
		got := coreSet(t, drainAll(t, NewAll(e2), len(want)+10))
		if len(got) != len(want) {
			t.Fatalf("trial %d: PDall(max) %d cores, naive %d", trial, len(got), len(want))
		}
		for k, wc := range want {
			gc, ok := got[k]
			if !ok {
				t.Fatalf("trial %d: core %s missing", trial, k)
			}
			if !costsEqual(gc, wc) {
				t.Fatalf("trial %d: core %s max-cost %v, naive %v", trial, k, gc, wc)
			}
		}

		e3, _ := NewEngine(g, nil, kws, rmax)
		e3.SetRanker(MaxRanker())
		top := drainTopK(t, NewTopK(e3), len(want)+10)
		if len(top) != len(want) {
			t.Fatalf("trial %d: PDk(max) emitted %d, want %d", trial, len(top), len(want))
		}
		wantCosts := sortedCosts(naive)
		for i := range top {
			if !costsEqual(top[i].Cost, wantCosts[i]) {
				t.Fatalf("trial %d: rank %d max-cost %v, want %v", trial, i+1, top[i].Cost, wantCosts[i])
			}
		}
	}
}

// TestMaxCostPaperExample: on the Fig. 4 example the max-distance cost
// of core [v4,v8,v6] is 4 (center v4: max(0,4,3)) and it stays rank 1.
func TestMaxCostPaperExample(t *testing.T) {
	g, ids := PaperGraph()
	e, _ := NewEngine(g, nil, []string{"a", "b", "c"}, 8)
	e.SetRanker(MaxRanker())
	it := NewTopK(e)
	first, ok := it.NextCore()
	if !ok {
		t.Fatal("no result")
	}
	if !first.Core.Equal(Core{ids[4], ids[8], ids[6]}) {
		t.Fatalf("rank 1 core = %v, want [v4 v8 v6]", first.Core)
	}
	if !costsEqual(first.Cost, 4) {
		t.Fatalf("rank 1 max-cost = %v, want 4", first.Cost)
	}
	// GetCommunity agrees with the enumerator's cost.
	r := e.GetCommunity(first.Core)
	if !costsEqual(r.Cost, 4) {
		t.Fatalf("materialized max-cost = %v, want 4", r.Cost)
	}
}

// TestCostOfAggregates sanity-checks the aggregate helper.
func TestCostOfAggregates(t *testing.T) {
	g, _ := PaperGraph()
	e, _ := NewEngine(g, nil, []string{"a"}, 8)
	if got := e.CostOf([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("sum = %v", got)
	}
	e.SetRanker(MaxRanker())
	if got := e.CostOf([]float64{1, 5, 3}); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := e.CostOf(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}
