package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"commdb/internal/graph"
)

// tieGraph has five centres c_0..c_4 (ids 0-4) of equal summed cost 10:
// c_i reaches its own a-node a_i (id 5+i) at distance 1+i and its own
// b-node b_i (id 10+i) at 9-i, so every centre yields a distinct core
// (a_i, b_i). Three isolated extra a-nodes make slot b the smaller one,
// and slot b settles the centres in the reverse of id order (c_4 at 5,
// c_0 last at 9): a scan that followed settle order instead of the
// lowest id would pick a different core.
func tieGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode(fmt.Sprintf("c%d", i))
	}
	for i := 0; i < 5; i++ {
		b.AddNode(fmt.Sprintf("a%d", i), "a")
	}
	for i := 0; i < 5; i++ {
		b.AddNode(fmt.Sprintf("b%d", i), "b")
	}
	for i := 0; i < 3; i++ {
		b.AddNode(fmt.Sprintf("x%d", i), "a")
	}
	for i := 0; i < 5; i++ {
		c := graph.NodeID(i)
		b.AddEdge(c, graph.NodeID(5+i), float64(1+i))
		b.AddEdge(c, graph.NodeID(10+i), float64(9-i))
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tableRanker scores centre c_i (recognized by its distance 1+i to its
// a-node) as cost[i].
type tableRanker struct{ cost [5]float64 }

func (tableRanker) Name() string { return "table" }
func (r tableRanker) Cost(dists []float64) float64 {
	return r.cost[int(dists[0])-1]
}

// TestBestCoreTieOrder pins which core BestCore returns when centres
// tie: the one an ascending-id scan keeps, i.e. the first centre by id
// unless a later one is strictly cheaper. Under a ranker that returns
// NaN, that rule makes a NaN at the lowest-id centre stick (nothing
// compares below it) and a NaN anywhere else lose; +Inf is an ordinary
// largest value.
func TestBestCoreTieOrder(t *testing.T) {
	g := tieGraph(t)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		ranker Ranker
		centre int
	}{
		{"sum", nil, 0},
		{"all-equal", tableRanker{[5]float64{1, 1, 1, 1, 1}}, 0},
		{"nan-first", tableRanker{[5]float64{nan, 1, 1, 0, 1}}, 0},
		{"nan-later", tableRanker{[5]float64{4, nan, 2, 2, nan}}, 2},
		{"nan-cheapest-later", tableRanker{[5]float64{3, 3, nan, 3, 3}}, 0},
		{"inf-first", tableRanker{[5]float64{inf, 4, 3, 3, 4}}, 2},
		{"all-inf", tableRanker{[5]float64{inf, inf, inf, inf, inf}}, 0},
		{"signed-zero", tableRanker{[5]float64{1, 0, math.Copysign(0, -1), 0, 1}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(g, nil, []string{"a", "b"}, 10)
			if err != nil {
				t.Fatal(err)
			}
			e.SetRanker(tc.ranker)
			for i := 0; i < e.L(); i++ {
				e.setSlotFull(i)
			}
			c, cost, ok := e.bestCore()
			if !ok {
				t.Fatal("no core")
			}
			want := Core{graph.NodeID(5 + tc.centre), graph.NodeID(10 + tc.centre)}
			if c.Key() != want.Key() {
				t.Fatalf("core %v, want %v (centre c%d)", c, want, tc.centre)
			}
			wantCost := e.CostOf([]float64{float64(1 + tc.centre), float64(9 - tc.centre)})
			if !(cost == wantCost || math.IsNaN(cost) && math.IsNaN(wantCost)) {
				t.Fatalf("cost %v, want %v", cost, wantCost)
			}

			// COMM-k's first answer is the same BestCore pick.
			e2, err := NewEngine(g, nil, []string{"a", "b"}, 10)
			if err != nil {
				t.Fatal(err)
			}
			e2.SetRanker(tc.ranker)
			cc, ok := NewTopK(e2).NextCore()
			if !ok || cc.Core.Key() != want.Key() {
				t.Fatalf("COMM-k first core %v (ok %v), want %v", cc.Core, ok, want)
			}
		})
	}
}

// TestBestCoreEmptySlot: no core while some slot holds nothing, even if
// the other slots are full.
func TestBestCoreEmptySlot(t *testing.T) {
	g := tieGraph(t)
	e, err := NewEngine(g, nil, []string{"a", "b"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	e.setSlotFull(0)
	e.setSlot(1, nil)
	if c, _, ok := e.bestCore(); ok {
		t.Fatalf("core %v from an empty slot", c)
	}
}

// scanBestCore is BestCore as the ascending scan of every node id it
// replaced: the reference the smallest-slot scan must agree with.
func scanBestCore(e *Engine) (Core, bool) {
	bestU, bestCost := graph.NodeID(-1), 0.0
	for u := 0; u < e.g.NumNodes(); u++ {
		if e.agg.Count[u] != int16(e.l) {
			continue
		}
		cost := e.agg.Sum[u]
		if e.ranker != Ranker(sumRanker{}) {
			dists := make([]float64, e.l)
			for i := range dists {
				dists[i], _ = e.nbr[i].Dist(graph.NodeID(u))
			}
			cost = e.CostOf(dists)
		}
		if bestU < 0 || cost < bestCost {
			bestU, bestCost = graph.NodeID(u), cost
		}
	}
	if bestU < 0 {
		return nil, false
	}
	c := make(Core, e.l)
	for i := range c {
		c[i] = e.nbr[i].Src(bestU)
	}
	return c, true
}

// nanRanker sums, but scores NaN for a candidate whose summed distance
// is a multiple of three.
type nanRanker struct{}

func (nanRanker) Name() string { return "nan" }
func (nanRanker) Cost(dists []float64) float64 {
	s := sumRanker{}.Cost(dists)
	if math.Mod(s, 3) == 0 {
		return math.NaN()
	}
	return s
}

// TestBestCoreMatchesFullScan drives random slot states (full sets,
// pins, subsets) under the sum, max and a NaN-producing ranker and
// checks BestCore against the full ascending scan after every step.
func TestBestCoreMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rankers := []Ranker{nil, MaxRanker(), nanRanker{}}
	compared := 0
	for trial := 0; trial < 60; trial++ {
		g, kws := randomKeywordGraph(t, rng, 30, 90, 3)
		e, err := NewEngine(g, nil, kws, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !e.HasAllKeywords() {
			continue
		}
		e.SetRanker(rankers[trial%len(rankers)])
		for i := 0; i < e.l; i++ {
			e.setSlotFull(i)
		}
		for step := 0; step < 40; step++ {
			want, wok := scanBestCore(e)
			got, _, gok := e.bestCore()
			if wok != gok || wok && got.Key() != want.Key() {
				t.Fatalf("trial %d step %d: bestCore %v (%v), full scan %v (%v)", trial, step, got, gok, want, wok)
			}
			compared++
			i := rng.Intn(e.l)
			vi := e.keywordNodes[i]
			switch rng.Intn(3) {
			case 0:
				e.setSlotFull(i)
			case 1:
				e.setSlotSingle(i, vi[rng.Intn(len(vi))])
			default:
				var seeds []graph.NodeID
				for _, v := range vi {
					if rng.Intn(2) == 0 {
						seeds = append(seeds, v)
					}
				}
				e.setSlot(i, seeds)
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d states compared", compared)
	}
}
