package commdb

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// mustOpen is Open for tests whose options cannot fail.
func mustOpen(t testing.TB, g *Graph, opts ...Option) *Searcher {
	t.Helper()
	s, err := Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustCollect drains it, failing the test on any stop reason.
func mustCollect(t testing.TB, it *Results, max int) []*Community {
	t.Helper()
	out, err := it.Collect(max)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return out
}

func TestPublicTableI(t *testing.T) {
	g, ids := PaperExampleGraph()
	s := mustOpen(t, g)
	it, err := s.TopK(Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantCosts := []float64{7, 10, 11, 14, 15}
	got, err := it.Collect(10)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("collected %d communities, want 5", len(got))
	}
	for i, r := range got {
		if math.Abs(r.Cost-wantCosts[i]) > 1e-9 {
			t.Errorf("rank %d cost = %v, want %v", i+1, r.Cost, wantCosts[i])
		}
	}
	// Rank 1 core is [v4, v8, v6].
	if !got[0].Core.Equal(Core{ids[4], ids[8], ids[6]}) {
		t.Errorf("rank 1 core = %v", got[0].Core)
	}
}

func TestPublicIntroExample(t *testing.T) {
	g, ids := IntroExampleGraph()
	s := mustOpen(t, g)
	it, err := s.All(Query{Keywords: []string{"kate", "smith"}, Rmax: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, it, 10)
	if len(got) != 2 {
		t.Fatalf("found %d communities, want 2", len(got))
	}
	_ = ids
}

// TestIndexedMatchesDirect: the indexed searcher returns exactly the
// same communities as the direct one, including re-induced edges.
func TestIndexedMatchesDirect(t *testing.T) {
	db, err := GenerateDBLP(150, 21)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustOpen(t, g)
	indexed, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	if !indexed.Indexed() || direct.Indexed() {
		t.Fatal("Indexed flags")
	}

	// Use a planted probe keyword pair guaranteed to exist.
	q := Query{Keywords: []string{"database", "graph"}, Rmax: 8}
	d1, err := direct.All(q)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := indexed.All(q)
	if err != nil {
		t.Fatal(err)
	}
	c1 := mustCollect(t, d1, 0)
	c2 := mustCollect(t, d2, 0)
	if len(c1) != len(c2) {
		t.Fatalf("direct found %d, indexed %d", len(c1), len(c2))
	}
	byKey := map[string]*Community{}
	for _, r := range c1 {
		byKey[r.Core.Key()] = r
	}
	for _, r := range c2 {
		want, ok := byKey[r.Core.Key()]
		if !ok {
			t.Fatalf("indexed core %v missing from direct run", r.Core)
		}
		if math.Abs(r.Cost-want.Cost) > 1e-9 {
			t.Fatalf("core %v: cost %v vs %v", r.Core, r.Cost, want.Cost)
		}
		if len(r.Nodes) != len(want.Nodes) {
			t.Fatalf("core %v: %d nodes vs %d", r.Core, len(r.Nodes), len(want.Nodes))
		}
		for i := range r.Nodes {
			if r.Nodes[i] != want.Nodes[i] {
				t.Fatalf("core %v: node sets differ", r.Core)
			}
		}
		if len(r.Edges) != len(want.Edges) {
			t.Fatalf("core %v: %d edges vs %d (projection edge re-induction broken)",
				r.Core, len(r.Edges), len(want.Edges))
		}
	}
}

// TestIndexedTopKContinuation: interactive enlargement works through
// the public API on a projected query.
func TestIndexedTopKContinuation(t *testing.T) {
	db, err := GenerateIMDB(80, 10, 31)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(g, WithIndex(13))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"star", "girl"}, Rmax: 13}
	it, err := s.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := it.Collect(5)
	more, _ := it.Collect(5)

	it2, err := s.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := it2.Collect(10)
	if len(fresh) != len(first)+len(more) {
		t.Fatalf("continuation %d+%d vs fresh %d", len(first), len(more), len(fresh))
	}
	for i, r := range append(first, more...) {
		if math.Abs(r.Cost-fresh[i].Cost) > 1e-9 {
			t.Fatalf("rank %d: continued cost %v, fresh %v", i+1, r.Cost, fresh[i].Cost)
		}
	}
}

func TestSearcherErrors(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	if _, err := s.All(Query{Rmax: 5}); err == nil {
		t.Fatal("empty keywords should error")
	}
	if _, err := s.TopK(Query{Keywords: []string{"a"}, Rmax: -2}); err == nil {
		t.Fatal("negative Rmax should error")
	}
	ix, err := Open(g, WithIndex(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.All(Query{Keywords: []string{"a"}, Rmax: 9}); err == nil {
		t.Fatal("Rmax beyond index radius should error")
	}
}

func TestKeywordFrequency(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	if kwf := s.KeywordFrequency("c"); math.Abs(kwf-4.0/13.0) > 1e-12 {
		t.Fatalf("KWF(c) = %v", kwf)
	}
	if s.KeywordFrequency("zzz") != 0 {
		t.Fatal("unknown keyword KWF should be 0")
	}
	if s.Graph() != g {
		t.Fatal("Graph accessor")
	}
}

func TestGraphIORoundTripPublic(t *testing.T) {
	g, _ := PaperExampleGraph()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	// Searching the round-tripped graph gives the same answer.
	s := mustOpen(t, g2)
	it, err := s.TopK(Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := it.Collect(10); len(got) != 5 {
		t.Fatalf("round-tripped graph yields %d communities", len(got))
	}
}

func TestBuildDatabaseThroughPublicAPI(t *testing.T) {
	db := NewDatabase()
	people, err := db.CreateTable(Schema{
		Name: "People",
		Columns: []Column{
			{Name: "Id", Type: Int},
			{Name: "Name", Type: String, FullText: true},
		},
		PrimaryKey: []string{"Id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	knows, err := db.CreateTable(Schema{
		Name: "Knows",
		Columns: []Column{
			{Name: "A", Type: Int},
			{Name: "B", Type: Int},
		},
		PrimaryKey: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey(ForeignKey{FromTable: "Knows", FromColumn: "A", ToTable: "People"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey(ForeignKey{FromTable: "Knows", FromColumn: "B", ToTable: "People"}); err != nil {
		t.Fatal(err)
	}
	if err := people.Insert(IntV(1), StrV("ada lovelace")); err != nil {
		t.Fatal(err)
	}
	if err := people.Insert(IntV(2), StrV("alan turing")); err != nil {
		t.Fatal(err)
	}
	if err := knows.Insert(IntV(1), IntV(2)); err != nil {
		t.Fatal(err)
	}
	g, m, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	s := mustOpen(t, g)
	it, err := s.All(Query{Keywords: []string{"ada", "turing"}, Rmax: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := mustCollect(t, it, 0)
	if len(got) != 1 {
		t.Fatalf("found %d communities, want 1", len(got))
	}
	// Resolve the community's core back to tuples.
	for _, v := range got[0].Core {
		ref := m.Ref(v)
		if ref.Table != "People" {
			t.Fatalf("core node resolves to %+v", ref)
		}
	}
	if stats := GraphStatsOf(g); stats.Nodes != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestConcurrentQueries: a Searcher is safe for concurrent use — every
// query gets its own engine; the shared graph and indexes are read-only.
func TestConcurrentQueries(t *testing.T) {
	db, err := GenerateDBLP(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		{"database", "graph"},
		{"web", "parallel"},
		{"space", "routing"},
		{"dynamic", "logic"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for round := 0; round < 4; round++ {
		for _, kws := range queries {
			wg.Add(1)
			go func(kws []string) {
				defer wg.Done()
				it, err := s.TopK(Query{Keywords: kws, Rmax: 7})
				if err != nil {
					errs <- err
					return
				}
				if _, cerr := it.Collect(20); cerr != nil {
					errs <- cerr
					return
				}
			}(kws)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexedMapBackExact: a community found through the projection is
// mapped back to exactly the community a direct search returns — every
// node list in the same (sorted) order, and the re-induced edge list
// identical entry for entry, one entry per parallel edge. mapBack
// relies on ToParent being ascending instead of re-sorting.
func TestIndexedMapBackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	compared, edges := 0, 0
	for trial := 0; trial < 30; trial++ {
		b := NewGraphBuilder()
		n := 20 + rng.Intn(40)
		for i := 0; i < n; i++ {
			var terms []string
			for _, kw := range []string{"ka", "kb"} {
				if rng.Intn(5) == 0 {
					terms = append(terms, kw)
				}
			}
			b.AddNode("", terms...)
		}
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			b.AddEdge(u, v, float64(1+rng.Intn(3)))
			if rng.Intn(3) == 0 {
				b.AddEdge(u, v, float64(1+rng.Intn(3))) // parallel
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Keywords: []string{"ka", "kb"}, Rmax: 5}
		collect := func(s *Searcher) map[string]*Community {
			it, err := s.All(q)
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]*Community{}
			for _, r := range mustCollect(t, it, 0) {
				out[r.Core.Key()] = r
			}
			return out
		}
		direct := collect(mustOpen(t, g))
		indexed := collect(mustOpen(t, g, WithIndex(5)))
		if len(direct) != len(indexed) {
			t.Fatalf("trial %d: %d communities direct, %d indexed", trial, len(direct), len(indexed))
		}
		for key, want := range direct {
			got := indexed[key]
			if got == nil {
				t.Fatalf("trial %d: core %s missing from the indexed run", trial, key)
			}
			if !slices.Equal(got.Core, want.Core) || !slices.Equal(got.Nodes, want.Nodes) ||
				!slices.Equal(got.Cnodes, want.Cnodes) || !slices.Equal(got.Pnodes, want.Pnodes) ||
				!slices.Equal(got.Knodes, want.Knodes) || !slices.Equal(got.Edges, want.Edges) {
				t.Fatalf("trial %d core %s:\nindexed %+v\ndirect  %+v", trial, key, got, want)
			}
			compared, edges = compared+1, edges+len(want.Edges)
		}
	}
	if compared < 100 || edges < 1000 {
		t.Fatalf("only %d communities with %d edges compared", compared, edges)
	}
}
