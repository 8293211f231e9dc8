package commdb

import (
	"fmt"
	"testing"
)

// Golden values for the fixed-seed pipeline below. Update them only
// for deliberate generator changes.
const (
	goldenGraphShape = "6958/17224"
	goldenResults    = 1
)

// TestGoldenPipeline pins the whole pipeline end to end with fixed
// seeds: generator → relational integrity → graph materialization →
// index build → projection → ranked enumeration. Any behavioural
// regression in any layer changes the golden values.
func TestGoldenPipeline(t *testing.T) {
	db, err := GenerateDBLP(1000, 2026)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}

	// The generator is seeded, so the graph is pinned exactly.
	if got := fmt.Sprintf("%d/%d", g.NumNodes(), g.NumEdges()); got != goldenGraphShape {
		t.Fatalf("graph shape = %s (generator behaviour changed; update goldens deliberately)", got)
	}

	s, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"database", "graph"}, Rmax: 8}
	it, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	all := mustCollect(t, it, 0)

	// Cross-check against the un-indexed path rather than a stored
	// count, so the golden doubles as an equivalence assertion.
	it2, err := mustOpen(t, g).All(q)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustCollect(t, it2, 0)
	if len(all) != len(direct) {
		t.Fatalf("indexed %d vs direct %d", len(all), len(direct))
	}
	if len(all) != goldenResults {
		t.Fatalf("result count = %d, want golden %d", len(all), goldenResults)
	}
	if len(all) == 0 {
		t.Fatal("golden query must have results to pin ranking")
	}

	// Ranking order pinned: first TopK result is the global minimum of
	// the COMM-all costs.
	it3, err := s.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := it3.Next()
	if !ok {
		t.Fatal("no results")
	}
	min := best.Cost
	for _, r := range all {
		if r.Cost < min-1e-9 {
			t.Fatalf("TopK first = %v but COMM-all holds %v", min, r.Cost)
		}
	}
}
