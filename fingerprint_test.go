package commdb

import (
	"testing"
)

// TestNormalizedCanonicalizes: keywords are lowercased, tokenized and
// sorted; Rmax, Ranker and Limits survive untouched.
func TestNormalizedCanonicalizes(t *testing.T) {
	q := Query{
		Keywords: []string{"Web", "database", " GRAPH "},
		Rmax:     6,
		Ranker:   MaxRanker(),
		Limits:   Limits{MaxResults: 7},
	}
	n := q.Normalized()
	want := []string{"database", "graph", "web"}
	if len(n.Keywords) != len(want) {
		t.Fatalf("normalized keywords = %v, want %v", n.Keywords, want)
	}
	for i := range want {
		if n.Keywords[i] != want[i] {
			t.Fatalf("normalized keywords = %v, want %v", n.Keywords, want)
		}
	}
	if n.Rmax != 6 || n.Ranker != MaxRanker() || n.Limits.MaxResults != 7 {
		t.Fatalf("normalization changed non-keyword fields: %+v", n)
	}
	// The receiver is unchanged (value semantics).
	if q.Keywords[0] != "Web" {
		t.Fatalf("Normalized mutated the original query: %v", q.Keywords)
	}
}

// TestFingerprintInvariance: reordering and re-casing keywords, or
// changing Limits, does not change the fingerprint.
func TestFingerprintInvariance(t *testing.T) {
	base := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	same := []Query{
		{Keywords: []string{"c", "a", "b"}, Rmax: 8},
		{Keywords: []string{"B", "A", "C"}, Rmax: 8},
		{Keywords: []string{" a", "b ", "C"}, Rmax: 8},
		{Keywords: []string{"a", "b", "c"}, Rmax: 8, Limits: Limits{MaxResults: 3}},
	}
	fp := base.Fingerprint()
	for _, q := range same {
		if got := q.Fingerprint(); got != fp {
			t.Errorf("Fingerprint(%v) = %q, want %q", q.Keywords, got, fp)
		}
	}
}

// TestFingerprintDiscrimination: queries with different answers get
// different fingerprints, including length-prefix edge cases where
// naive joining would collide.
func TestFingerprintDiscrimination(t *testing.T) {
	distinct := []Query{
		{Keywords: []string{"a", "b", "c"}, Rmax: 8},
		{Keywords: []string{"a", "b"}, Rmax: 8},
		{Keywords: []string{"a", "b", "c"}, Rmax: 7},
		{Keywords: []string{"a", "b", "c"}, Rmax: 8, Ranker: MaxRanker()},
		{Keywords: []string{"ab", "c"}, Rmax: 8},
		{Keywords: []string{"a", "bc"}, Rmax: 8},
		{Keywords: []string{"a", "a", "b"}, Rmax: 8},
	}
	seen := map[string]int{}
	for i, q := range distinct {
		fp := q.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("queries %d and %d share fingerprint %q", i, j, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintNamesTheRanker: answers ranked by different
// aggregates never share a fingerprint — the result cache and the
// request coalescer key on it — while the nil default and
// an explicit SumRanker are the same query.
func TestFingerprintNamesTheRanker(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	sumQ := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	maxQ := sumQ
	maxQ.Ranker = MaxRanker()
	sum, max := collectFull(t, s, sumQ), collectFull(t, s, maxQ)
	if sum[0].Cost == max[0].Cost {
		t.Fatalf("max-ranked best costs the same as the sum-ranked one (%v): the graph does not separate them", sum[0].Cost)
	}
	if sumQ.Fingerprint() == maxQ.Fingerprint() {
		t.Fatalf("max-ranked answers (cost %v) were produced under the sum fingerprint %q", max[0].Cost, sumQ.Fingerprint())
	}
	explicit := sumQ
	explicit.Ranker = SumRanker()
	if explicit.Fingerprint() != sumQ.Fingerprint() {
		t.Fatalf("explicit SumRanker fingerprint %q differs from the default %q", explicit.Fingerprint(), sumQ.Fingerprint())
	}
}

// TestNormalizedQuerySameResults: a normalized query enumerates the
// same communities as the original (as unordered core sets) on the
// paper's example graph.
func TestNormalizedQuerySameResults(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	orig := Query{Keywords: []string{"C", "a", "B"}, Rmax: 8}

	collect := func(q Query) map[string]float64 {
		it, err := s.All(q)
		if err != nil {
			t.Fatalf("All(%v): %v", q.Keywords, err)
		}
		out := map[string]float64{}
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			// Key by the unordered core set: normalization may permute
			// core positions but never the set.
			set := append(Core(nil), r.Core...)
			for i := 0; i < len(set); i++ {
				for j := i + 1; j < len(set); j++ {
					if set[j] < set[i] {
						set[i], set[j] = set[j], set[i]
					}
				}
			}
			out[set.Key()] = r.Cost
		}
		if err := it.Err(); err != nil {
			t.Fatalf("All(%v) stopped early: %v", q.Keywords, err)
		}
		return out
	}

	got, want := collect(orig.Normalized()), collect(orig)
	if len(got) != len(want) {
		t.Fatalf("normalized query found %d communities, original %d", len(got), len(want))
	}
	for k, cost := range want {
		if got[k] != cost {
			t.Errorf("core %s: normalized cost %v, original %v", k, got[k], cost)
		}
	}
}
