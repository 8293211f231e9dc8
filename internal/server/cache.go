package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"commdb/internal/obs"
)

// cacheKey identifies one cacheable top-k answer: the query's answer-set
// identity, how many communities were asked for, the record shape, and
// the snapshot epoch the answer was produced under. The epoch is part of
// every key, so a stale epoch's answers can never serve a request
// answered from a newer one.
type cacheKey struct {
	fingerprint string // commdb.Query.Fingerprint()
	k           int
	compact     bool
	epoch       int64
}

// CachedAnswer is one cached top-k answer: wire-ready records from a
// cleanly completed enumeration. Partial results (a tripped budget, a
// canceled context) are never cached — their shape depends on the
// request's limits, which are deliberately outside the cache key.
type CachedAnswer struct {
	Records  []CommunityRecord
	Complete bool   // the enumeration was not cut short by a limit
	Reason   string // stop reason when !Complete (never set on cached values)
	Bytes    int64
	// Trace is the producing execution's summary. It is returned only
	// to the flight's direct waiters when they asked for a trace; cache
	// hits never surface it (they reflect no execution).
	Trace *obs.Summary
}

// CacheStats is the result cache's observability view: the /statsz
// cache block, the commdb_cache_* metric families and the /debug/memz
// result_cache component all read it.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// sizeOf estimates the logical footprint of a cached answer, for the
// cache's byte bound.
func sizeOf(records []CommunityRecord) int64 {
	var b int64 = 64
	for i := range records {
		r := &records[i]
		b += 96 // record header
		b += int64(len(r.Core)+len(r.Centers)+len(r.Nodes))*4 + int64(len(r.Edges))*8
		for _, l := range r.CoreLabels {
			b += int64(len(l)) + 16
		}
	}
	return b
}

// resultCache is the top-k result cache: a size-bounded LRU holding one
// answer per cacheKey. It bounds both the entry count and the
// approximate resident bytes; inserting past either bound evicts
// least-recently-used entries. Safe for concurrent use.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recent
	items      map[cacheKey]*list.Element

	hits, misses atomic.Int64
}

type lruEntry struct {
	key cacheKey
	val *CachedAnswer
}

// newResultCache returns a cache bounded to maxEntries entries and
// maxBytes approximate bytes; either bound may be 0 for "no bound on
// this axis". A cache with maxEntries < 0 is disabled: Put is a no-op,
// so Get always misses (and still counts the miss, so dashboards see
// the traffic shape).
func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[cacheKey]*list.Element),
	}
}

// Get returns the answer cached for key and marks it most recently
// used.
func (c *resultCache) Get(key cacheKey) (*CachedAnswer, bool) {
	var val *CachedAnswer
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*lruEntry).val
	}
	c.mu.Unlock()
	if val == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts (or refreshes) a cleanly completed answer and evicts LRU
// entries until both bounds hold again. An answer larger than the whole
// byte bound is not cached.
func (c *resultCache) Put(key cacheKey, val *CachedAnswer) {
	if c.maxEntries < 0 || !val.Complete || (c.maxBytes > 0 && val.Bytes > c.maxBytes) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.bytes += val.Bytes - ent.val.Bytes
		ent.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
		c.bytes += val.Bytes
	}
	for c.ll.Len() > 0 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		c.remove(c.ll.Back())
	}
}

// remove unlinks one entry. Callers hold the mutex.
func (c *resultCache) remove(el *list.Element) {
	ent := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.val.Bytes
}

// DropOtherEpochs removes every entry from an epoch other than current.
// The epoch inside each key already prevents stale serving;
// invalidation just frees the memory promptly after a reload instead of
// waiting for LRU churn.
func (c *resultCache) DropOtherEpochs(current int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*lruEntry).key.epoch != current {
			c.remove(el)
		}
	}
}

// Stats snapshots the counters and the resident totals.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: entries,
		Bytes:   bytes,
	}
}
