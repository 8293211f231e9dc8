package obs

// This file is the retention half of the observability layer: PR 3's
// traces die with their query, so the capture ring keeps the ones worth
// asking about later. Retention is tail-based — the decision to keep a
// record is made after the query finishes, when its latency, stop
// reason and SLO verdict are known — with three capture classes:
//
//   - the captureSlowN slowest queries seen so far (a min-replace pool,
//     so a new slow query evicts the fastest of the retained slow set);
//   - every errored, budget-tripped or SLO-breaching query (a ring of
//     the most recent captureRingSize, so misbehavior cannot be crowded
//     out by healthy traffic);
//   - a deterministic 1-in-captureSampleEvery sample of everything else
//     (same ring), giving the slow-log unbiased background coverage for
//     the price of one modulo.

import (
	"sort"
	"sync"
	"time"
)

// Capture reasons, reported in QueryRecord.Captured.
const (
	CapturedSlow    = "slow"       // admitted to the slowest-N pool
	CapturedErrored = "errored"    // stopped early or failed
	CapturedBreach  = "slo_breach" // emission-delay SLO watchdog fired
	CapturedSampled = "sampled"    // deterministic 1-in-M background sample
)

// The retention policy every deployment runs.
const (
	captureSlowN       = 32  // slowest queries kept in the pool
	captureRingSize    = 256 // errored/breaching/sampled records kept
	captureSampleEvery = 32  // one in this many other queries is sampled
)

// QueryRecord is one completed query as the capture layer sees it:
// identity (fingerprint, normalized keywords, operating point),
// outcome, headline latencies and the full trace summary.
type QueryRecord struct {
	QueryID     string   `json:"query_id,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	Keywords    []string `json:"keywords,omitempty"`
	Rmax        float64  `json:"rmax,omitempty"`
	K           int      `json:"k,omitempty"` // 0 for COMM-all
	Endpoint    string   `json:"endpoint,omitempty"`
	// Indexed reports whether the query ran through the inverted-index
	// projection.
	Indexed bool      `json:"indexed"`
	Start   time.Time `json:"start"`
	TotalMS float64   `json:"total_ms"`
	Results int       `json:"results"`
	// StopReason is empty for a cleanly completed query.
	StopReason string `json:"stop_reason,omitempty"`
	// Errored marks queries that failed or stopped early (budget,
	// deadline, cancellation) — always captured.
	Errored bool `json:"errored,omitempty"`
	// Inter-emission gap statistics from the watchdog check (the time
	// to the first result is not a gap).
	MaxEmissionDelayMS    float64 `json:"max_emission_delay_ms,omitempty"`
	MedianEmissionDelayMS float64 `json:"median_emission_delay_ms,omitempty"`
	// SLOBreach marks queries whose max inter-emission gap exceeded the
	// watchdog threshold — always captured.
	SLOBreach bool `json:"slo_breach,omitempty"`
	// Captured lists why the record was retained.
	Captured []string `json:"captured,omitempty"`
	// Trace is the query's full trace summary.
	Trace *Summary `json:"trace,omitempty"`
}

// Capture is the concurrency-safe tail-sampling store; the zero value
// is ready to use.
type Capture struct {
	mu      sync.Mutex
	seq     int64          // completed queries seen
	kept    int64          // records retained (any reason)
	ring    []*QueryRecord // errored/breach/sampled, circular
	ringPos int
	slow    []*QueryRecord // slowest-N pool
}

// Observe decides whether to retain rec, stamping rec.Captured with the
// reasons.
func (c *Capture) Observe(rec *QueryRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++

	var reasons []string
	if rec.Errored {
		reasons = append(reasons, CapturedErrored)
	}
	if rec.SLOBreach {
		reasons = append(reasons, CapturedBreach)
	}
	sampled := len(reasons) == 0 && c.seq%captureSampleEvery == 0
	if sampled {
		reasons = append(reasons, CapturedSampled)
	}

	// Slowest-N pool: admit when the pool has room or rec is slower
	// than the pool's current fastest member.
	inSlow := false
	if len(c.slow) < captureSlowN {
		c.slow = append(c.slow, rec)
		inSlow = true
	} else if i := c.fastestIdx(); c.slow[i].TotalMS < rec.TotalMS {
		c.slow[i] = rec
		inSlow = true
	}
	if inSlow {
		reasons = append(reasons, CapturedSlow)
	}

	if len(reasons) == 0 {
		return
	}
	rec.Captured = reasons
	c.kept++
	// The slow pool holds its members itself; everything else goes to
	// the ring. (A record can live in both; Snapshot dedups.)
	if rec.Errored || rec.SLOBreach || sampled {
		if len(c.ring) < captureRingSize {
			c.ring = append(c.ring, rec)
		} else {
			c.ring[c.ringPos] = rec
			c.ringPos = (c.ringPos + 1) % captureRingSize
		}
	}
}

// fastestIdx locates the pool member with the smallest latency — the
// eviction candidate. The pool is small (captureSlowN), so a linear
// scan is cheaper than maintaining heap order under concurrent
// eviction.
func (c *Capture) fastestIdx() int {
	min := 0
	for i := 1; i < len(c.slow); i++ {
		if c.slow[i].TotalMS < c.slow[min].TotalMS {
			min = i
		}
	}
	return min
}

// Snapshot returns every retained record, slowest first, deduplicated
// across the slow pool and the ring. The records are shared (not
// copied); treat them as immutable after Observe.
func (c *Capture) Snapshot() []QueryRecord {
	c.mu.Lock()
	seen := make(map[*QueryRecord]struct{}, len(c.slow)+len(c.ring))
	out := make([]QueryRecord, 0, len(c.slow)+len(c.ring))
	for _, set := range [2][]*QueryRecord{c.slow, c.ring} {
		for _, r := range set {
			if _, dup := seen[r]; dup {
				continue
			}
			seen[r] = struct{}{}
			out = append(out, *r)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// Stats reports how many completions the store has seen and how many
// records it retained.
func (c *Capture) Stats() (observed, retained int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq, c.kept
}
