package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// answerAt builds a cached answer with the given per-record costs and
// reuse radii. meta[i] = {reuse, core}.
func answerAt(rmax float64, k int, exhausted bool, costs []float64, meta [][2]float64) *CachedAnswer {
	records := make([]CommunityRecord, len(costs))
	ms := make([]RecordMeta, len(costs))
	for i, c := range costs {
		records[i] = CommunityRecord{Type: RecordCommunity, Rank: i + 1, Cost: c}
		ms[i] = RecordMeta{ReuseRadius: meta[i][0], CoreRadius: meta[i][1]}
	}
	return &CachedAnswer{
		Records: records, Complete: true, Exhausted: exhausted,
		Rmax: rmax, K: k, Meta: ms, Bytes: sizeOf(records),
	}
}

// TestFilterToGuards walks the downfilter's soundness guards one by
// one: every case that could serve records differing from a live run
// must refuse, and the sound cases must renumber exactly.
func TestFilterToGuards(t *testing.T) {
	full := answerAt(8, 3, false,
		[]float64{10, 11, 12},
		[][2]float64{{2, 1}, {6, 3}, {8, 4}})

	// Same radius: prefix serving.
	if v, ok := full.filterTo(8, 2); !ok || len(v.Records) != 2 || v.Records[1].Rank != 2 {
		t.Fatalf("equal-radius prefix: got %+v ok=%v", v, ok)
	}
	// Same radius, k beyond the cached records, not exhausted → live.
	if _, ok := full.filterTo(8, 4); ok {
		t.Fatal("served more records than the cache can prove exist")
	}
	// Same radius, k beyond, exhausted → the whole answer serves.
	exh := answerAt(8, 5, true, []float64{10, 11}, [][2]float64{{4, 2}, {6, 3}})
	if v, ok := exh.filterTo(8, 4); !ok || len(v.Records) != 2 || !v.Exhausted {
		t.Fatalf("exhausted equal-radius: got %+v ok=%v", v, ok)
	}

	// Larger requested radius: never servable.
	if _, ok := full.filterTo(9, 1); ok {
		t.Fatal("served beyond the cached radius")
	}
	// Incomplete answers are never servable.
	if _, ok := (&CachedAnswer{Rmax: 8}).filterTo(4, 1); ok {
		t.Fatal("served an incomplete answer")
	}
	// No meta: downfilter impossible.
	noMeta := &CachedAnswer{Records: full.Records, Complete: true, Rmax: 8}
	if _, ok := noMeta.filterTo(4, 1); ok {
		t.Fatal("downfiltered without record meta")
	}

	// Keep/drop classification: at rmax 5, record 0 keeps (reuse 2),
	// record 1 is in its shrink zone (core 3 < 5 < reuse 6) → refuse.
	if _, ok := full.filterTo(5, 1); ok {
		t.Fatal("served through a shrink-zone record")
	}
	// At rmax 2.5, record 0 keeps, records 1 and 2 vanish (core radius
	// above 2.5) — but the answer is not exhausted and only 1 record is
	// kept, so k=2 must refuse while k=1 can serve.
	if _, ok := full.filterTo(2.5, 2); ok {
		t.Fatal("served k=2 with one provable record and an open tail")
	}
	v, ok := full.filterTo(2.5, 1)
	if !ok || len(v.Records) != 1 || v.Records[0].Cost != 10 || v.Records[0].Rank != 1 {
		t.Fatalf("downfilter to 2.5/k=1: got %+v ok=%v", v, ok)
	}
	// The served record keeps the producing cost but the boundary guard
	// applies: its cost (10) is strictly under the cached tail (12).
	// Push the tail down to a tie and the guard must refuse.
	tie := answerAt(8, 3, false,
		[]float64{10, 11, 10},
		[][2]float64{{2, 1}, {6, 3}, {8, 4}})
	if _, ok := tie.filterTo(2.5, 1); ok {
		t.Fatal("served across a cost tie with the cached tail")
	}

	// Equal costs among served records: emission order across radii is
	// not stable for ties → refuse.
	tied := answerAt(8, 3, true,
		[]float64{10, 10, 12},
		[][2]float64{{4, 2}, {4, 2}, {8, 4}})
	if _, ok := tied.filterTo(5, 2); ok {
		t.Fatal("served two equal-cost records across radii")
	}

	// First unserved kept record tying the last served one → refuse.
	boundary := answerAt(8, 3, true,
		[]float64{10, 11, 11},
		[][2]float64{{4, 2}, {4, 2}, {4, 2}})
	if _, ok := boundary.filterTo(5, 2); ok {
		t.Fatal("served with a cost tie at the k boundary")
	}
	// With strictly increasing costs the same shape serves.
	clean := answerAt(8, 3, true,
		[]float64{10, 11, 12},
		[][2]float64{{4, 2}, {4, 2}, {4, 2}})
	v, ok = clean.filterTo(5, 2)
	if !ok || len(v.Records) != 2 || v.Exhausted {
		t.Fatalf("clean downfilter: got %+v ok=%v", v, ok)
	}
	// Serving every kept record of an exhausted answer stays exhausted.
	if v, ok := clean.filterTo(5, 3); !ok || !v.Exhausted {
		t.Fatalf("exhausted propagation: got %+v ok=%v", v, ok)
	}

	// Nothing kept and not exhausted: the space below the cached tail
	// is unknown → refuse. Exhausted: the empty answer is proof.
	gone := answerAt(8, 2, false, []float64{10}, [][2]float64{{6, 5}})
	if _, ok := gone.filterTo(2, 1); ok {
		t.Fatal("served an empty answer without exhaustion")
	}
	goneExh := answerAt(8, 2, true, []float64{10}, [][2]float64{{6, 5}})
	if v, ok := goneExh.filterTo(2, 1); !ok || len(v.Records) != 0 || !v.Exhausted {
		t.Fatalf("exhausted empty downfilter: got %+v ok=%v", v, ok)
	}
}

func key(group string, epoch int64, rmax float64, k int) CacheKey {
	return CacheKey{Group: group, Epoch: epoch, Rmax: rmax, K: k}
}

// TestSemanticCacheProbe: exact identity wins, otherwise the smallest
// covering radius in the group is downfiltered; foreign groups and
// epochs never serve.
func TestSemanticCacheProbe(t *testing.T) {
	c := newSemanticCache(0, 0)
	big := answerAt(8, 2, true, []float64{10, 11}, [][2]float64{{3, 1}, {3, 1}})
	mid := answerAt(6, 2, true, []float64{10, 11}, [][2]float64{{3, 1}, {3, 1}})
	c.Put(key("q", 1, 8, 2), big)
	c.Put(key("q", 1, 6, 2), mid)

	// Exact.
	if v, semantic, ok := c.Get(key("q", 1, 6, 2)); !ok || semantic || len(v.Records) != 2 {
		t.Fatalf("exact probe: ok=%v semantic=%v", ok, semantic)
	}
	// Covered radius: served semantically from the rmax=6 entry (the
	// smallest covering one).
	v, semantic, ok := c.Get(key("q", 1, 4, 2))
	if !ok || !semantic || len(v.Records) != 2 || v.Rmax != 4 {
		t.Fatalf("semantic probe: ok=%v semantic=%v val=%+v", ok, semantic, v)
	}
	// Beyond every cached radius: miss.
	if _, _, ok := c.Get(key("q", 1, 9, 2)); ok {
		t.Fatal("served beyond every cached radius")
	}
	// Same shape, different group or epoch: miss.
	if _, _, ok := c.Get(key("other", 1, 4, 2)); ok {
		t.Fatal("served across groups")
	}
	if _, _, ok := c.Get(key("q", 2, 4, 2)); ok {
		t.Fatal("served across epochs")
	}
	st := c.Stats()
	if st.Hits != 2 || st.SemanticHits != 1 || st.Misses != 3 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want hits=2 semantic=1 misses=3 entries=2", st)
	}
}

// TestSemanticCacheEviction: the entry bound evicts LRU entries and
// cleans the group index, so evicted answers can no longer serve.
func TestSemanticCacheEviction(t *testing.T) {
	c := newSemanticCache(2, 0)
	mk := func(g string) *CachedAnswer {
		return answerAt(8, 1, true, []float64{10}, [][2]float64{{3, 1}})
	}
	c.Put(key("a", 1, 8, 1), mk("a"))
	c.Put(key("b", 1, 8, 1), mk("b"))
	c.Put(key("c", 1, 8, 1), mk("c")) // evicts "a"
	if _, _, ok := c.Get(key("a", 1, 4, 1)); ok {
		t.Fatal("evicted entry still serves semantically")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if len(c.groups) != 2 {
		t.Fatalf("group index has %d groups, want 2", len(c.groups))
	}
}

// TestSemanticCacheEpochInvalidation: a sweep drops every other-epoch
// entry.
func TestSemanticCacheEpochInvalidation(t *testing.T) {
	c := newSemanticCache(0, 0)
	c.Put(key("a", 1, 8, 1), answerAt(8, 1, true, []float64{10}, [][2]float64{{3, 1}}))
	c.Put(key("b", 2, 8, 1), answerAt(8, 1, true, []float64{10}, [][2]float64{{3, 1}}))
	c.InvalidateEpochs(2)
	if _, _, ok := c.Get(key("a", 1, 8, 1)); ok {
		t.Fatal("stale epoch survived invalidation")
	}
	if _, _, ok := c.Get(key("b", 2, 8, 1)); !ok {
		t.Fatal("current epoch was dropped")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestLayeredPromotion: an L2 hit (semantic or exact) is promoted into
// the exact front, so the next identical request is an L1 hit.
func TestLayeredPromotion(t *testing.T) {
	c, err := NewCache("layered", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("q", 1, 8, 2), answerAt(8, 2, true, []float64{10, 11}, [][2]float64{{3, 1}, {3, 1}}))

	// First probe at a smaller radius: semantic, via L2.
	if _, semantic, ok := c.Get(key("q", 1, 4, 2)); !ok || !semantic {
		t.Fatalf("first layered probe: ok=%v semantic=%v", ok, semantic)
	}
	// Second identical probe: absorbed by the promoted L1 entry.
	if _, semantic, ok := c.Get(key("q", 1, 4, 2)); !ok || semantic {
		t.Fatalf("promoted probe: ok=%v semantic=%v, want exact hit", ok, semantic)
	}
	st := c.Stats()
	if st.Hits != 2 || st.SemanticHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want hits=2 semantic=1 misses=0", st)
	}
}

// TestNewCacheModes: mode validation and the disabled spelling.
func TestNewCacheModes(t *testing.T) {
	if _, err := NewCache("bogus", 0, 0); err == nil {
		t.Fatal("unknown cache mode accepted")
	}
	c, err := NewCache("semantic", -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("q", 1, 8, 1), answerAt(8, 1, true, []float64{10}, [][2]float64{{3, 1}}))
	if _, _, ok := c.Get(key("q", 1, 8, 1)); ok {
		t.Fatal("negative entry bound did not disable the cache")
	}
}

// TestE2ESemanticMonotonicity is the Rmax-monotonicity property test
// against the real engine: prime a semantic-cache server once at the
// largest radius, then sweep smaller radii and ks and require every
// response — semantically served or not — to be byte-identical to an
// uncached server's answer for the same request. This is the
// containment property end to end: results at r' ≤ r are exactly the
// r-results filtered to r', or the cache refuses and the query runs
// live; either way the wire bytes match.
func TestE2ESemanticMonotonicity(t *testing.T) {
	cached, tsC := newPaperServer(t, Config{CacheMode: "semantic"})
	_, tsU := newPaperServer(t, Config{CacheMode: "off"})

	ask := func(url string, keywords []string, rmax float64, k int) TopKResponse {
		resp := postJSON(t, url+"/v1/search/topk",
			searchBody(t, keywords, map[string]any{"rmax": rmax, "k": k}))
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		return decodeTopK(t, resp)
	}

	for _, keywords := range [][]string{{"a", "b", "c"}, {"b", "c"}} {
		// Prime: the full answer at the largest radius, k beyond the
		// community count so the cached answer is exhausted.
		prime := ask(tsC.URL, keywords, 8, 50)
		if !prime.Complete || prime.Cached {
			t.Fatalf("prime query: complete=%v cached=%v", prime.Complete, prime.Cached)
		}
		for _, rmax := range []float64{8, 7.5, 7, 6.5, 6, 5.5, 5, 4.5, 4, 3, 2, 1} {
			for _, k := range []int{1, 2, 3, 50} {
				got := ask(tsC.URL, keywords, rmax, k)
				want := ask(tsU.URL, keywords, rmax, k)
				gb, _ := json.Marshal(got.Results)
				wb, _ := json.Marshal(want.Results)
				if string(gb) != string(wb) || got.Complete != want.Complete {
					t.Fatalf("keywords=%v rmax=%g k=%d: cached answer differs from live\n got %s (complete=%v)\nwant %s (complete=%v)",
						keywords, rmax, k, gb, got.Complete, wb, want.Complete)
				}
				if got.Semantic && !got.Cached {
					t.Fatalf("rmax=%g k=%d: semantic response not marked cached", rmax, k)
				}
			}
		}
	}
	// The sweep must have exercised the semantic path, not just fallen
	// back to live execution everywhere.
	if st := cached.Stats(); st.CacheSemanticHits == 0 {
		t.Fatalf("no semantic hits across the sweep: %+v", st)
	}
}

// TestE2ESemanticEpochZero ensures downfiltered answers carry the wire
// contract fields: Semantic implies Cached, records re-rank from 1,
// and complete/exhausted answers report Complete.
func TestE2ESemanticRanks(t *testing.T) {
	srv, ts := newPaperServer(t, Config{CacheMode: "semantic"})

	prime := postJSON(t, ts.URL+"/v1/search/topk",
		searchBody(t, []string{"a", "b", "c"}, map[string]any{"rmax": 8, "k": 50}))
	decodeTopK(t, prime)

	var sem *TopKResponse
	for _, rmax := range []float64{7.5, 7, 6.5, 6, 5.5, 5, 4.5, 4, 3, 2} {
		resp := postJSON(t, ts.URL+"/v1/search/topk",
			searchBody(t, []string{"a", "b", "c"}, map[string]any{"rmax": rmax, "k": 50}))
		r := decodeTopK(t, resp)
		if r.Semantic {
			sem = &r
			break
		}
	}
	if sem == nil {
		t.Fatal("no radius in the sweep produced a semantic hit")
	}
	if !sem.Cached {
		t.Fatal("semantic hit not marked cached")
	}
	for i, rec := range sem.Results {
		if rec.Rank != i+1 {
			t.Fatalf("record %d has rank %d after downfilter", i, rec.Rank)
		}
	}
	if !reflect.DeepEqual(srv.Stats().CacheSemanticHits, int64(1)) {
		t.Fatalf("semantic hit count = %d, want 1", srv.Stats().CacheSemanticHits)
	}
}
