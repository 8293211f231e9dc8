package core

import (
	"testing"

	"commdb/internal/fulltext"
)

func TestNewEngineErrors(t *testing.T) {
	g, _ := PaperGraph()
	if _, err := NewEngine(g, nil, nil, 8); err != ErrNoKeywords {
		t.Fatalf("no keywords: err = %v, want ErrNoKeywords", err)
	}
	if _, err := NewEngine(g, nil, []string{"a"}, -1); err == nil {
		t.Fatal("negative Rmax should error")
	}
	if _, err := NewEngine(g, nil, []string{"two words"}, 8); err == nil {
		t.Fatal("multi-term keyword should error")
	}
	if _, err := NewEngine(g, nil, []string{""}, 8); err == nil {
		t.Fatal("empty keyword should error")
	}
}

func TestNewEngineNormalizesCase(t *testing.T) {
	g, _ := IntroGraph()
	e, err := NewEngine(g, nil, []string{"KATE", "Smith"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasAllKeywords() {
		t.Fatal("case-insensitive keyword match failed")
	}
	if len(e.KeywordNodes(0)) != 1 || len(e.KeywordNodes(1)) != 2 {
		t.Fatalf("V_kate = %v, V_smith = %v", e.KeywordNodes(0), e.KeywordNodes(1))
	}
}

func TestEngineWithFulltextIndex(t *testing.T) {
	g, _ := PaperGraph()
	ix := fulltext.Build(g)
	e1, err := NewEngine(g, ix, []string{"a", "b", "c"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(g, nil, []string{"a", "b", "c"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Keyword node sets must be identical with and without the index.
	for i := 0; i < 3; i++ {
		a, b := e1.KeywordNodes(i), e2.KeywordNodes(i)
		if len(a) != len(b) {
			t.Fatalf("keyword %d: index %v, scan %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("keyword %d: index %v, scan %v", i, a, b)
			}
		}
	}
	// And the enumeration results too.
	r1 := coreSet(t, drainAll(t, NewAll(e1), 100))
	r2 := coreSet(t, drainAll(t, NewAll(e2), 100))
	if len(r1) != len(r2) {
		t.Fatalf("indexed run found %d cores, scan run %d", len(r1), len(r2))
	}
}

func TestEngineAccessors(t *testing.T) {
	g, _ := PaperGraph()
	e, _ := NewEngine(g, nil, []string{"a", "b"}, 8)
	if e.Graph() != g {
		t.Fatal("Graph accessor")
	}
	if e.L() != 2 {
		t.Fatalf("L = %d, want 2", e.L())
	}
	if e.Rmax() != 8 {
		t.Fatalf("Rmax = %v, want 8", e.Rmax())
	}
	if e.NeighborRuns() != 0 {
		t.Fatal("fresh engine should have zero Dijkstra runs")
	}
	if e.Bytes() <= 0 {
		t.Fatal("engine Bytes should be positive")
	}
	drainAll(t, NewAll(e), 100)
	if e.NeighborRuns() == 0 {
		t.Fatal("enumeration should count Dijkstra runs")
	}
}

// TestEngineDelayBound checks the polynomial-delay property in
// machine-independent terms, on the paper's graph and on the work
// golden's random instances, for both enumerators. Per NextCore
// hand-over, the terminating call included, PDall runs at most 2l
// bounded Dijkstras (l pins plus one set run per position; full-set
// restores come from the cache) and PDk at most 2l (l pins plus
// l - pos set runs), except on its first call, which also installs the
// l full sets: 3l. Materializing a core adds l knode passes plus the
// forward and reverse pass: l + 2.
func TestEngineDelayBound(t *testing.T) {
	type input struct {
		name string
		e    *Engine
	}
	fresh := []func() input{func() input {
		g, _ := PaperGraph()
		e, _ := NewEngine(g, nil, []string{"a", "b", "c"}, 8)
		return input{"paper", e}
	}}
	for _, c := range enumCases() {
		fresh = append(fresh, func() input {
			e, _ := c.engine(t)
			return input{c.name, e}
		})
	}
	for _, mk := range fresh {
		for _, algo := range []string{"all", "topk"} {
			in := mk()
			e, l := in.e, in.e.L()
			var src CoreSource = NewAll(e)
			if algo == "topk" {
				src = NewTopK(e)
			}
			for call := 0; call <= enumWorkCap; call++ {
				before := e.NeighborRuns()
				cc, ok := src.NextCore()
				bound := 2 * l
				if algo == "topk" && call == 0 {
					bound = 3 * l
				}
				if runs := e.NeighborRuns() - before; runs > bound {
					t.Fatalf("%s/%s call %d: %d Dijkstra runs, bound %d", in.name, algo, call, runs, bound)
				}
				if !ok {
					break
				}
				before = e.NeighborRuns()
				e.GetCommunity(cc.Core)
				if runs := e.NeighborRuns() - before; runs > l+2 {
					t.Fatalf("%s/%s call %d: GetCommunity ran %d Dijkstras, bound %d", in.name, algo, call, runs, l+2)
				}
			}
		}
	}
}

func TestClearSlotsResetsAggregates(t *testing.T) {
	g, _ := PaperGraph()
	e, _ := NewEngine(g, nil, []string{"a", "b", "c"}, 8)
	for i := 0; i < 3; i++ {
		e.setSlot(i, e.keywordNodes[i])
	}
	e.clearSlots()
	for v := range e.agg.Count {
		if e.agg.Count[v] != 0 {
			t.Fatalf("cnt[%d] = %d after clear", v, e.agg.Count[v])
		}
		if e.agg.Sum[v] != 0 {
			t.Fatalf("sum[%d] = %v after clear", v, e.agg.Sum[v])
		}
	}
	if _, _, ok := e.bestCore(); ok {
		t.Fatal("bestCore on cleared slots should find nothing")
	}
}
