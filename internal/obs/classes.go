package obs

// Per-query-class rolling aggregates. Query cost varies wildly with
// keyword count and with whether the searcher projects through the
// inverted indexes, so process-wide means hide the interesting signal;
// the class layer keys every completed query by (keyword-count bucket ×
// indexed/plain) and keeps, per class, cumulative counters plus a
// sliding-window view: request rate, latency quantiles from a
// log-spaced histogram, and emission-delay statistics.
//
// The window is a rotating set of time slices: observations land in the
// slice covering now, and a snapshot merges only the slices still
// inside the window, so old traffic ages out in slice-sized steps
// without any background goroutine.

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// classLatencyBucketsMS are the log-spaced upper bounds of the
// per-class latency histogram (milliseconds); +Inf is implicit.
var classLatencyBucketsMS = [...]float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// ClassKey buckets a query: keyword count (1, 2, 3, 4+) crossed with
// indexed/plain execution. The string form ("kw2/indexed") is the
// capture record's Class field; the two halves become Prometheus
// labels.
func ClassKey(keywords int, indexed bool) string {
	return "kw" + KeywordBucket(keywords) + "/" + indexedWord(indexed)
}

// KeywordBucket maps a keyword count to its class bucket label.
func KeywordBucket(n int) string {
	if n >= 4 {
		return "4+"
	}
	if n < 1 {
		n = 1
	}
	return strconv.Itoa(n)
}

func indexedWord(indexed bool) string {
	if indexed {
		return "indexed"
	}
	return "plain"
}

// The sliding window every deployment runs: a minute in six slices.
const (
	classWindow   = time.Minute
	classSlices   = 6
	classSliceDur = classWindow / classSlices
)

// classSlice is one time slice of one class's window.
type classSlice struct {
	epoch     int64 // which slice interval this data covers
	count     int64
	errors    int64
	latCounts [len(classLatencyBucketsMS) + 1]int64
	latSum    float64
	emitN     int64
	emitSum   float64
	emitMax   float64
}

// classAgg is one class's full state: cumulative counters plus the
// rotating window slices.
type classAgg struct {
	keywords string // bucket label
	indexed  bool

	total       int64
	errors      int64
	sloBreaches int64
	slices      [classSlices]classSlice
}

// Classes holds the per-class aggregates. Create with NewClasses.
type Classes struct {
	now func() time.Time // the clock; tests substitute it

	mu      sync.Mutex
	classes map[string]*classAgg
}

// NewClasses builds the per-class aggregate store.
func NewClasses() *Classes {
	return &Classes{now: time.Now, classes: make(map[string]*classAgg)}
}

// Observe folds one completed query into its class.
func (c *Classes) Observe(rec *QueryRecord) {
	epoch := c.now().UnixNano() / int64(classSliceDur)
	c.mu.Lock()
	defer c.mu.Unlock()
	agg, ok := c.classes[rec.Class]
	if !ok {
		agg = &classAgg{
			keywords: KeywordBucket(len(rec.Keywords)),
			indexed:  rec.Indexed,
		}
		c.classes[rec.Class] = agg
	}
	agg.total++
	if rec.Errored {
		agg.errors++
	}
	if rec.SLOBreach {
		agg.sloBreaches++
	}
	sl := &agg.slices[int(epoch%classSlices)]
	if sl.epoch != epoch {
		*sl = classSlice{epoch: epoch} // the slice's previous interval aged out
	}
	sl.count++
	if rec.Errored {
		sl.errors++
	}
	i := sort.SearchFloat64s(classLatencyBucketsMS[:], rec.TotalMS)
	sl.latCounts[i]++
	sl.latSum += rec.TotalMS
	if rec.MaxEmissionDelayMS > 0 {
		sl.emitN++
		sl.emitSum += rec.MaxEmissionDelayMS
		if rec.MaxEmissionDelayMS > sl.emitMax {
			sl.emitMax = rec.MaxEmissionDelayMS
		}
	}
}

// ClassSnapshot is one class's exported view: cumulative totals plus
// the sliding-window rate, latency quantiles and emission-delay stats.
type ClassSnapshot struct {
	Class    string `json:"class"`
	Keywords string `json:"keywords"` // bucket label: 1, 2, 3, 4+
	Indexed  bool   `json:"indexed"`

	Total       int64 `json:"total"`
	Errors      int64 `json:"errors"`
	SLOBreaches int64 `json:"slo_breaches"`

	// Window statistics.
	WindowCount   int64   `json:"window_count"`
	WindowErrors  int64   `json:"window_errors"`
	RatePerSec    float64 `json:"rate_per_sec"`
	MeanMS        float64 `json:"mean_ms"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	EmissionMaxMS float64 `json:"emission_max_ms"`
	// EmissionMeanMaxMS averages each query's max inter-emission delay
	// over the window — the per-class view of the polynomial-delay
	// promise.
	EmissionMeanMaxMS float64 `json:"emission_mean_max_ms"`
}

// Snapshot exports every class, sorted by class key for deterministic
// output.
func (c *Classes) Snapshot() []ClassSnapshot {
	epoch := c.now().UnixNano() / int64(classSliceDur)
	minEpoch := epoch - classSlices + 1

	c.mu.Lock()
	out := make([]ClassSnapshot, 0, len(c.classes))
	for key, agg := range c.classes {
		snap := ClassSnapshot{
			Class:       key,
			Keywords:    agg.keywords,
			Indexed:     agg.indexed,
			Total:       agg.total,
			Errors:      agg.errors,
			SLOBreaches: agg.sloBreaches,
		}
		var hist [len(classLatencyBucketsMS) + 1]int64
		var latSum, emitSum float64
		var emitN int64
		for i := range agg.slices {
			sl := &agg.slices[i]
			if sl.epoch < minEpoch || sl.epoch > epoch {
				continue // aged out (or never used)
			}
			snap.WindowCount += sl.count
			snap.WindowErrors += sl.errors
			latSum += sl.latSum
			emitN += sl.emitN
			emitSum += sl.emitSum
			if sl.emitMax > snap.EmissionMaxMS {
				snap.EmissionMaxMS = sl.emitMax
			}
			for b := range hist {
				hist[b] += sl.latCounts[b]
			}
		}
		if snap.WindowCount > 0 {
			snap.RatePerSec = float64(snap.WindowCount) / classWindow.Seconds()
			snap.MeanMS = latSum / float64(snap.WindowCount)
			snap.P50MS = HistQuantile(classLatencyBucketsMS[:], hist[:], 0.50)
			snap.P95MS = HistQuantile(classLatencyBucketsMS[:], hist[:], 0.95)
			snap.P99MS = HistQuantile(classLatencyBucketsMS[:], hist[:], 0.99)
		}
		if emitN > 0 {
			snap.EmissionMeanMaxMS = emitSum / float64(emitN)
		}
		out = append(out, snap)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
