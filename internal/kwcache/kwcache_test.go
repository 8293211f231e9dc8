package kwcache

import (
	"testing"

	"commdb/internal/core"
	"commdb/internal/fulltext"
	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// paperStore builds a warmed store over the paper's running example:
// every keyword of Fig. 4 at the given radius.
func paperStore(t *testing.T, radius float64) (*Store, *fulltext.Index) {
	t.Helper()
	g, _ := core.PaperGraph()
	ft := fulltext.Build(g)
	s, err := New(ft, radius)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Warm([]string{"a", "b", "c"}); got != 3 {
		t.Fatalf("Warm added %d terms, want 3", got)
	}
	return s, ft
}

// liveRun is the ground truth FullSet must reproduce: a live bounded
// reverse Dijkstra from the term's keyword nodes.
func liveRun(g *graph.Graph, ft *fulltext.Index, term string, rmax float64) *sssp.Result {
	ws := sssp.NewWorkspace(g)
	res := sssp.NewResult(g.NumNodes())
	ws.RunFromNodes(sssp.Reverse, ft.Nodes(term), rmax, res)
	return res
}

func sameResult(t *testing.T, term string, rmax float64, got, want *sssp.Result) {
	t.Helper()
	gv, wv := got.Visited(), want.Visited()
	if len(gv) != len(wv) {
		t.Fatalf("%s@%g: settled %d nodes, live run settles %d", term, rmax, len(gv), len(wv))
	}
	for i := range wv {
		if gv[i] != wv[i] {
			t.Fatalf("%s@%g: settle %d is node %d, live run settles %d", term, rmax, i, gv[i], wv[i])
		}
		v := wv[i]
		gd, _ := got.Dist(v)
		wd, _ := want.Dist(v)
		if gd != wd || got.Src(v) != want.Src(v) || got.Via(v) != want.Via(v) {
			t.Fatalf("%s@%g: node %d (dist,src,via)=(%v,%d,%d), live run has (%v,%d,%d)",
				term, rmax, v, gd, got.Src(v), got.Via(v), wd, want.Src(v), want.Via(v))
		}
	}
}

// TestFullSetMatchesLiveRun: a FullSet served by truncation must be
// byte-identical to a live run at the query radius — same settle
// order, distances, sources and via hops — at the store radius and
// below it.
func TestFullSetMatchesLiveRun(t *testing.T) {
	s, ft := paperStore(t, 8)
	g := ft.Graph()
	for _, term := range []string{"a", "b", "c"} {
		for _, rmax := range []float64{8, 6, 4, 2, 0} {
			res := sssp.NewResult(g.NumNodes())
			if !s.FullSet(term, rmax, res) {
				t.Fatalf("FullSet(%s, %g) missed within the store radius", term, rmax)
			}
			sameResult(t, term, rmax, res, liveRun(g, ft, term, rmax))
		}
	}
	if s.Hits() != 15 || s.Misses() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 15/0", s.Hits(), s.Misses())
	}
}

// TestFullSetMisses: an unknown term or a radius beyond the store's
// must fall through to live execution.
func TestFullSetMisses(t *testing.T) {
	s, ft := paperStore(t, 8)
	res := sssp.NewResult(ft.Graph().NumNodes())
	if s.FullSet("zzz", 4, res) {
		t.Fatal("FullSet served a term that was never warmed")
	}
	if s.FullSet("a", 8.5, res) {
		t.Fatal("FullSet served beyond the store radius")
	}
	if s.Hits() != 0 || s.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", s.Hits(), s.Misses())
	}
}

// TestWarmSkipsNonTerms: multi-word and empty keywords are skipped,
// warmed terms are not recomputed, and a keyword matching no node gets
// an empty artifact that serves the empty set just as a live run would.
func TestWarmSkipsNonTerms(t *testing.T) {
	g, _ := core.PaperGraph()
	ft := fulltext.Build(g)
	s, err := New(ft, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Warm([]string{"a", "two words", "", "a", "ghost"}); got != 2 {
		t.Fatalf("Warm added %d, want 2 (a + ghost)", got)
	}
	if got := s.Warm([]string{"a"}); got != 0 {
		t.Fatalf("re-warming an existing term added %d, want 0", got)
	}
	res := sssp.NewResult(g.NumNodes())
	if !s.FullSet("ghost", 4, res) {
		t.Fatal("an empty artifact should still serve")
	}
	if len(res.Visited()) != 0 {
		t.Fatalf("ghost term settled %d nodes, want 0", len(res.Visited()))
	}
}
