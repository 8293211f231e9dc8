package commdb

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestPublicTrees: the tree baseline through the public API, on the
// introduction example (3 distinct-root trees vs 2 communities).
func TestPublicTrees(t *testing.T) {
	g, ids := IntroExampleGraph()
	s := mustOpen(t, g)
	it, err := s.Trees(Query{Keywords: []string{"kate", "smith"}, Rmax: 6})
	if err != nil {
		t.Fatal(err)
	}
	trees := it.Collect(100)
	if len(trees) != 3 {
		t.Fatalf("trees = %d, want 3", len(trees))
	}
	if trees[0].Root != ids["paper2"] {
		t.Fatalf("best tree root = %d, want paper2", trees[0].Root)
	}
	// Ranked order.
	for i := 1; i < len(trees); i++ {
		if trees[i].Cost < trees[i-1].Cost-1e-9 {
			t.Fatal("tree cost order violated")
		}
	}
	if _, err := s.Trees(Query{Rmax: 6}); err == nil {
		t.Fatal("empty keywords should error")
	}
}

// TestPublicMaxCost: the alternative cost function flows through Query.
func TestPublicMaxCost(t *testing.T) {
	g, ids := PaperExampleGraph()
	s := mustOpen(t, g)
	it, err := s.TopK(Query{Keywords: []string{"a", "b", "c"}, Rmax: 8, Ranker: MaxRanker()})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := it.Next()
	if !ok {
		t.Fatal("no result")
	}
	if !r.Core.Equal(Core{ids[4], ids[8], ids[6]}) {
		t.Fatalf("rank 1 core = %v", r.Core)
	}
	if math.Abs(r.Cost-4) > 1e-9 {
		t.Fatalf("max-cost = %v, want 4", r.Cost)
	}
	// Indexed searchers honor it too (ordering may differ from sum).
	ix, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	it2, err := ix.TopK(Query{Keywords: []string{"a", "b", "c"}, Rmax: 8, Ranker: MaxRanker()})
	if err != nil {
		t.Fatal(err)
	}
	r2, ok := it2.Next()
	if !ok || math.Abs(r2.Cost-4) > 1e-9 {
		t.Fatalf("indexed max-cost rank 1 = %v", r2)
	}
}

// TestIndexPersistencePublic: save and reload the inverted indexes; the
// reloaded searcher answers identically.
func TestIndexPersistencePublic(t *testing.T) {
	db, err := GenerateDBLP(150, 77)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(g, WithIndexReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Indexed() {
		t.Fatal("loaded searcher should be indexed")
	}
	q := Query{Keywords: []string{"database", "graph"}, Rmax: 7}
	it1, err := s1.All(q)
	if err != nil {
		t.Fatal(err)
	}
	it2, err := s2.All(q)
	if err != nil {
		t.Fatal(err)
	}
	c1 := mustCollect(t, it1, 0)
	c2 := mustCollect(t, it2, 0)
	if len(c1) != len(c2) {
		t.Fatalf("fresh index found %d, loaded %d", len(c1), len(c2))
	}
	if s1.IndexBytes() <= 0 {
		t.Fatal("IndexBytes should be positive")
	}
	if mustOpen(t, g).IndexBytes() != 0 {
		t.Fatal("un-indexed searcher should report 0 index bytes")
	}
	if err := mustOpen(t, g).WriteIndex(&buf); err == nil {
		t.Fatal("WriteIndex on un-indexed searcher should error")
	}
}

// TestCSVPublic: build a database from CSV data and search it.
func TestCSVPublic(t *testing.T) {
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
	if _, err := LoadCSV(people, strings.NewReader("1,ada lovelace\n2,alan turing\n3,grace hopper\n"), CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCSV(knows, strings.NewReader("1,2\n2,3\n"), CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, g)
	it, err := s.All(Query{Keywords: []string{"ada", "grace"}, Rmax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCollect(t, it, 0); len(got) != 1 {
		t.Fatalf("CSV-loaded database found %d communities, want 1", len(got))
	}
	var buf bytes.Buffer
	if err := DumpCSV(people, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "grace hopper") {
		t.Fatal("DumpCSV output incomplete")
	}
}
