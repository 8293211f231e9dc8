package commdb

import (
	"reflect"
	"testing"
)

// collectFull drains an enumeration into fully materialized
// communities.
func collectFull(t *testing.T, s *Searcher, q Query) []*Community {
	t.Helper()
	it, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Community
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, c)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameCommunities asserts two enumerations are indistinguishable:
// same order, costs, cores, centers, members and induced edges.
func sameCommunities(t *testing.T, got, want []*Community, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d communities, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Cost != w.Cost ||
			!reflect.DeepEqual(g.Core, w.Core) ||
			!reflect.DeepEqual(g.Cnodes, w.Cnodes) ||
			!reflect.DeepEqual(g.Nodes, w.Nodes) ||
			!reflect.DeepEqual(g.Edges, w.Edges) {
			t.Fatalf("%s: community %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestKeywordArtifactsByteIdentity: a searcher serving engine init from
// warmed keyword artifacts must produce the byte-identical community
// sequence as cold execution, at the store radius and below it.
func TestKeywordArtifactsByteIdentity(t *testing.T) {
	g, _ := PaperExampleGraph()
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	cold := collectFull(t, mustOpen(t, g), q)
	if len(cold) == 0 {
		t.Fatal("paper query returned nothing")
	}

	warm, err := Open(g, WithKeywordArtifactStore(8))
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.WarmKeywords([]string{"a", "b", "c"}); n != 3 {
		t.Fatalf("warmed %d keywords, want 3", n)
	}
	sameCommunities(t, collectFull(t, warm, q), cold, "warmed store")
	if ka := warm.KeywordArtifacts(); ka.Hits != 3 || ka.Misses != 0 {
		t.Fatalf("artifact hits/misses = %d/%d, want 3/0", ka.Hits, ka.Misses)
	}

	// Smaller query radii are served from the same artifacts by
	// truncation and must stay byte-identical too.
	for _, rmax := range []float64{6, 4} {
		sub := Query{Keywords: []string{"a", "b", "c"}, Rmax: rmax}
		sameCommunities(t, collectFull(t, warm, sub), collectFull(t, mustOpen(t, g), sub), "truncated radius")
	}
}

// TestKeywordArtifactsFallback: a query radius beyond the store's falls
// back to live execution — identical results, counted as misses.
func TestKeywordArtifactsFallback(t *testing.T) {
	g, _ := PaperExampleGraph()
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	cold := collectFull(t, mustOpen(t, g), q)

	warm, err := Open(g, WithKeywordArtifactStore(4))
	if err != nil {
		t.Fatal(err)
	}
	warm.WarmKeywords([]string{"a", "b", "c"})
	sameCommunities(t, collectFull(t, warm, q), cold, "beyond store radius")
	if ka := warm.KeywordArtifacts(); ka.Hits != 0 || ka.Misses == 0 {
		t.Fatalf("artifact hits/misses = %d/%d, want 0/>0", ka.Hits, ka.Misses)
	}

	// Work-shape limits disable artifact serving: the budget must trip
	// at the same points as cold execution, so the store steps aside.
	lim := Query{Keywords: []string{"a", "b", "c"}, Rmax: 4, Limits: Limits{MaxRelaxations: 1 << 30}}
	sameCommunities(t, collectFull(t, warm, lim), collectFull(t, mustOpen(t, g), lim), "limited query")
	if ka := warm.KeywordArtifacts(); ka.Hits != 0 {
		t.Fatalf("artifact hits = %d, want 0 (limits must bypass the store)", ka.Hits)
	}
}

// TestRankerEndpoints: the blended ranker reproduces both built-in
// aggregates exactly at its endpoints — SumRanker and BalancedRanker(1)
// match the nil-Ranker default, BalancedRanker(0) matches MaxRanker —
// and the max-ranked answer is the paper example's known one.
func TestRankerEndpoints(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	wantSum := collectFull(t, s, q)
	q.Ranker = MaxRanker()
	wantMax := collectFull(t, s, q)
	if wantSum[0].Cost != 7 || wantMax[0].Cost != 4 {
		t.Fatalf("best costs sum=%v max=%v, want 7 and 4", wantSum[0].Cost, wantMax[0].Cost)
	}

	balanced1, err := BalancedRanker(1)
	if err != nil {
		t.Fatal(err)
	}
	balanced0, err := BalancedRanker(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    Ranker
		want []*Community
	}{
		{"sum ranker", SumRanker(), wantSum},
		{"balanced alpha=1", balanced1, wantSum},
		{"balanced alpha=0", balanced0, wantMax},
	} {
		q.Ranker = tc.r
		got := collectFull(t, s, q)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d communities, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i].Cost != tc.want[i].Cost || !reflect.DeepEqual(got[i].Core, tc.want[i].Core) {
				t.Fatalf("%s: community %d is %v/%v, want %v/%v",
					tc.name, i, got[i].Core, got[i].Cost, tc.want[i].Core, tc.want[i].Cost)
			}
		}
	}
}

// TestBalancedRankerOrder: at an interior alpha the blended aggregate
// still satisfies the monotone contract observably — top-k emission
// order is non-decreasing in cost, and every cost sits between the
// blend's components' bounds.
func TestBalancedRankerOrder(t *testing.T) {
	if _, err := BalancedRanker(-0.1); err == nil {
		t.Fatal("BalancedRanker(-0.1) accepted")
	}
	if _, err := BalancedRanker(1.5); err == nil {
		t.Fatal("BalancedRanker(1.5) accepted")
	}
	r, err := BalancedRanker(0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := PaperExampleGraph()
	it, err := mustOpen(t, g).TopK(Query{Keywords: []string{"a", "b", "c"}, Rmax: 8, Ranker: r})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	n := 0
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		if c.Cost < prev {
			t.Fatalf("top-k emission order violated: %v after %v", c.Cost, prev)
		}
		prev = c.Cost
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("balanced ranker found nothing on the paper example")
	}
}

// TestRankerWithArtifacts: a custom ranker and the artifact store
// compose — warmed execution stays byte-identical under a non-default
// aggregate.
func TestRankerWithArtifacts(t *testing.T) {
	g, _ := PaperExampleGraph()
	r, err := BalancedRanker(0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8, Ranker: r}
	coldS := mustOpen(t, g)
	warmS, err := Open(g, WithKeywordArtifactStore(8))
	if err != nil {
		t.Fatal(err)
	}
	warmS.WarmKeywords([]string{"a", "b", "c"})
	sameCommunities(t, collectFull(t, warmS, q), collectFull(t, coldS, q), "ranker+artifacts")
	if ka := warmS.KeywordArtifacts(); ka.Hits == 0 {
		t.Fatal("artifacts did not serve under a custom ranker")
	}
}
