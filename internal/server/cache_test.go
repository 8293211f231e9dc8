package server

import (
	"fmt"
	"testing"
	"time"

	"commdb"
)

func recordsOfSize(n int) []CommunityRecord {
	out := make([]CommunityRecord, n)
	for i := range out {
		out[i] = CommunityRecord{Type: RecordCommunity, Rank: i + 1, Core: []commdb.NodeID{1, 2}}
	}
	return out
}

// keyOf is a cache key differing only in its fingerprint.
func keyOf(fp string) cacheKey { return cacheKey{fingerprint: fp} }

// answerOf is a complete cached answer of n records.
func answerOf(n int) *CachedAnswer {
	recs := recordsOfSize(n)
	return &CachedAnswer{Records: recs, Complete: true, Bytes: sizeOf(recs)}
}

// TestLRUEntryBound: inserting past the entry bound evicts the least
// recently used key, and Get refreshes recency.
func TestLRUEntryBound(t *testing.T) {
	c := newResultCache(2, 0)
	put := func(fp string) { c.Put(keyOf(fp), answerOf(1)) }
	put("a")
	put("b")
	if _, ok := c.Get(keyOf("a")); !ok { // refresh "a": "b" is now LRU
		t.Fatal("a missing before any eviction")
	}
	put("c")
	if _, ok := c.Get(keyOf("b")); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(keyOf(k)); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
}

// TestLRUByteBound: the byte bound evicts independently of the entry
// bound, and an answer larger than the whole bound is not cached.
func TestLRUByteBound(t *testing.T) {
	unit := sizeOf(recordsOfSize(1))
	c := newResultCache(100, 3*unit)
	for i := 0; i < 4; i++ {
		c.Put(keyOf(fmt.Sprint(i)), answerOf(1))
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes > 3*unit {
		t.Fatalf("entries = %d bytes = %d, want 3 entries within %d bytes", st.Entries, st.Bytes, 3*unit)
	}
	if _, ok := c.Get(keyOf("0")); ok {
		t.Fatal("oldest entry survived byte-bound eviction")
	}

	c.Put(keyOf("huge"), answerOf(1000))
	if _, ok := c.Get(keyOf("huge")); ok {
		t.Fatal("an answer larger than the byte bound was cached")
	}
}

// TestLRUDisabled: a negative entry bound disables the cache entirely,
// and its misses are still counted per cache, not per process.
func TestLRUDisabled(t *testing.T) {
	c := newResultCache(-1, 0)
	c.Put(keyOf("a"), answerOf(1))
	if _, ok := c.Get(keyOf("a")); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("disabled cache stats = %+v, want exactly its own 1 miss", st)
	}
	if st := newResultCache(-1, 0).Stats(); st.Misses != 0 {
		t.Fatalf("a second disabled cache starts with %d misses", st.Misses)
	}
}

// TestLRUExactKey: k and the record shape are part of the identity, a
// Put under a resident key replaces the answer and the byte total
// follows it, and an incomplete answer is never cached.
func TestLRUExactKey(t *testing.T) {
	c := newResultCache(10, 0)
	key := cacheKey{fingerprint: "q", k: 20}
	c.Put(key, answerOf(20))
	for _, other := range []cacheKey{{fingerprint: "q", k: 10}, {fingerprint: "q", k: 20, compact: true}} {
		if _, ok := c.Get(other); ok {
			t.Fatalf("%+v served from the %+v entry", other, key)
		}
	}
	c.Put(key, answerOf(7))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != sizeOf(recordsOfSize(7)) {
		t.Fatalf("after the second Put: %+v, want 1 entry of 7 records", st)
	}
	c.Put(key, &CachedAnswer{Records: recordsOfSize(50)})
	if val, ok := c.Get(key); !ok || len(val.Records) != 7 {
		t.Fatal("an incomplete answer was cached")
	}
}

// TestLRUDropOtherEpochs: the epoch sweep removes exactly the entries
// keyed under another epoch.
func TestLRUDropOtherEpochs(t *testing.T) {
	c := newResultCache(10, 0)
	for epoch := int64(1); epoch <= 3; epoch++ {
		c.Put(cacheKey{fingerprint: "q", epoch: epoch}, answerOf(1))
	}
	c.DropOtherEpochs(2)
	if st := c.Stats(); st.Entries != 1 || st.Bytes != sizeOf(recordsOfSize(1)) {
		t.Fatalf("after the sweep: %+v, want the one epoch-2 entry", st)
	}
	if _, ok := c.Get(cacheKey{fingerprint: "q", epoch: 2}); !ok {
		t.Fatal("the current epoch's entry was dropped")
	}
}

// TestClampLimits: request limits are capped field-by-field, unlimited
// requests — zero or, for a budget, negative — are pulled down to the
// maxima, and unset maxima pass the request through.
func TestClampLimits(t *testing.T) {
	max := commdb.Limits{Timeout: time.Second, MaxRelaxations: 1000, MaxNeighborRuns: 50,
		MaxCanTuples: 60, MaxHeapBytes: 70, MaxResults: 10}
	cases := []struct {
		name string
		req  commdb.Limits
		want commdb.Limits
	}{
		{"unlimited request clamps to maxima", commdb.Limits{}, max},
		{"over-ask clamps down",
			commdb.Limits{Timeout: time.Hour, MaxRelaxations: 1 << 40, MaxResults: 99, MaxCanTuples: 7},
			commdb.Limits{Timeout: time.Second, MaxRelaxations: 1000, MaxNeighborRuns: 50, MaxCanTuples: 7, MaxHeapBytes: 70, MaxResults: 10}},
		{"tighter request passes through",
			commdb.Limits{Timeout: time.Millisecond, MaxRelaxations: 5, MaxNeighborRuns: 4, MaxCanTuples: 3, MaxHeapBytes: 2, MaxResults: 1},
			commdb.Limits{Timeout: time.Millisecond, MaxRelaxations: 5, MaxNeighborRuns: 4, MaxCanTuples: 3, MaxHeapBytes: 2, MaxResults: 1}},
		{"negative max_relaxations clamps", commdb.Limits{MaxRelaxations: -1}, max},
		{"negative max_neighbor_runs clamps", commdb.Limits{MaxNeighborRuns: -1}, max},
		{"negative max_can_tuples clamps", commdb.Limits{MaxCanTuples: -1}, max},
		{"negative max_heap_bytes clamps", commdb.Limits{MaxHeapBytes: -1}, max},
		{"negative max_results clamps", commdb.Limits{MaxResults: -1 << 62}, max},
		{"negative timeout is already expired, kept",
			commdb.Limits{Timeout: -time.Second},
			commdb.Limits{Timeout: -time.Second, MaxRelaxations: 1000, MaxNeighborRuns: 50, MaxCanTuples: 60, MaxHeapBytes: 70, MaxResults: 10}},
	}
	for _, tc := range cases {
		if got := ClampLimits(tc.req, max); got != tc.want {
			t.Errorf("%s: ClampLimits = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// No maxima: everything passes through, including unlimited.
	req := commdb.Limits{MaxResults: 3}
	if got := ClampLimits(req, commdb.Limits{}); got != req {
		t.Errorf("unclamped: got %+v, want %+v", got, req)
	}
}

// TestHistQuantile sanity-checks the histogram quantile interpolation.
func TestHistQuantile(t *testing.T) {
	snap := latencySnapshot(repeat(3, 100)) // bucket (2, 5]
	if snap.Latency.P50MS <= 2 || snap.Latency.P50MS > 5 {
		t.Fatalf("p50 = %v, want within (2, 5]", snap.Latency.P50MS)
	}
	if snap.Latency.Count != 100 {
		t.Fatalf("count = %d", snap.Latency.Count)
	}
}
