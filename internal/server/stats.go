package server

import (
	"encoding/json"
	"math"
	"sync/atomic"

	"commdb/internal/delta"
	"commdb/internal/obs"
	"commdb/internal/snapshot"
)

// latencyBucketsMS are the upper bounds, in milliseconds, of the one
// query-latency histogram (commdb_query_latency_ms in /metricsz,
// query_latency in /statsz); the final implicit bucket is +Inf.
var latencyBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// keywordLabels are the values of the latency histogram's keywords
// label: the query's normalized keyword count, 4 and up sharing one.
var keywordLabels = [...]string{"1", "2", "3", "4+"}

// keywordBucket maps a normalized keyword count to its index in
// keywordLabels.
func keywordBucket(n int) int {
	return min(max(n, 1), len(keywordLabels)) - 1
}

// stats holds the server's counters. All fields are atomics so the hot
// path never takes a lock.
type stats struct {
	queriesStarted      atomic.Int64 // engine executions begun
	queriesCompleted    atomic.Int64 // engine executions finished (any outcome)
	streamsStarted      atomic.Int64 // streaming (all) requests admitted
	admissionRejections atomic.Int64 // 429s issued
	// resultLimitStops counts queries stopped by their result-count
	// limit — ordinary completion of a bounded stream, not resource
	// pressure. Kept apart from budgetExhausted: conflating the two
	// once made a healthy serve bench read as 98% budget-tripped.
	resultLimitStops atomic.Int64
	budgetExhausted  atomic.Int64 // queries stopped by a work budget or deadline
	canceled         atomic.Int64 // queries stopped by cancellation/shutdown
}

// BucketBound is a histogram bucket's inclusive upper bound in
// milliseconds. JSON has no infinity literal, so the unbounded last
// bucket marshals as the string "+Inf" (the Prometheus spelling).
type BucketBound float64

// MarshalJSON encodes finite bounds as numbers and +Inf as "+Inf".
func (b BucketBound) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(b), 1) {
		return []byte(`"+Inf"`), nil
	}
	return json.Marshal(float64(b))
}

// UnmarshalJSON accepts a number or the "+Inf" sentinel.
func (b *BucketBound) UnmarshalJSON(data []byte) error {
	if string(data) == `"+Inf"` {
		*b = BucketBound(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*b = BucketBound(f)
	return nil
}

// LatencyBucket is one histogram bucket in a snapshot.
type LatencyBucket struct {
	// LE is the bucket's inclusive upper bound in milliseconds; the
	// last bucket is unbounded and encodes as "+Inf".
	LE    BucketBound `json:"le_ms"`
	Count int64       `json:"count"`
}

// StatsSnapshot is the JSON body of GET /statsz.
type StatsSnapshot struct {
	QueriesStarted      int64 `json:"queries_started"`
	QueriesCompleted    int64 `json:"queries_completed"`
	QueriesInFlight     int64 `json:"queries_in_flight"`
	StreamsStarted      int64 `json:"streams_started"`
	CacheHits           int64 `json:"cache_hits"`
	CacheMisses         int64 `json:"cache_misses"`
	CacheEntries        int   `json:"cache_entries"`
	CacheBytes          int64 `json:"cache_bytes"`
	SingleflightShared  int64 `json:"singleflight_shared"`
	AdmissionRejections int64 `json:"admission_rejections"`
	AdmissionWaiting    int64 `json:"admission_waiting"`
	// ResultLimitStops counts queries stopped by their max_results
	// limit (ordinary bounded-stream completion); BudgetExhausted
	// counts stops by a work budget (relaxations, neighbor runs, can
	// tuples, heap bytes) or a deadline. Former releases reported both
	// as a single budget_trips counter.
	ResultLimitStops int64 `json:"result_limit_stops"`
	BudgetExhausted  int64 `json:"budget_exhausted"`
	Canceled         int64 `json:"canceled"`

	// Epochs is the snapshot subsystem's state — serving epoch,
	// probation, per-outcome reload counters — present only when the
	// server runs with hot reload enabled.
	Epochs *snapshot.Status `json:"epochs,omitempty"`

	// Deltas is the incremental maintainer's cumulative view — batches,
	// per-kind applied ops, dirty-set sizes, apply-vs-full-build times,
	// cumulative per-stage milliseconds — present only when the server
	// runs in delta mode.
	Deltas *delta.Stats `json:"deltas,omitempty"`

	// Latency is commdb_query_latency_ms summed over its keywords label.
	Latency struct {
		Count   int64           `json:"count"`
		MeanMS  float64         `json:"mean_ms"`
		P50MS   float64         `json:"p50_ms"`
		P95MS   float64         `json:"p95_ms"`
		P99MS   float64         `json:"p99_ms"`
		Buckets []LatencyBucket `json:"buckets"`
	} `json:"query_latency"`
}

// snapshot captures every counter. The in-flight gauge is derived, so
// a concurrent completion can transiently read as still in flight —
// fine for monitoring.
func (s *stats) snapshot() StatsSnapshot {
	var out StatsSnapshot
	out.QueriesStarted = s.queriesStarted.Load()
	out.QueriesCompleted = s.queriesCompleted.Load()
	out.QueriesInFlight = out.QueriesStarted - out.QueriesCompleted
	out.StreamsStarted = s.streamsStarted.Load()
	out.AdmissionRejections = s.admissionRejections.Load()
	out.ResultLimitStops = s.resultLimitStops.Load()
	out.BudgetExhausted = s.budgetExhausted.Load()
	out.Canceled = s.canceled.Load()
	return out
}

// setLatency renders the query_latency block from the process latency
// histogram's children summed, so /statsz and /metricsz can never
// disagree.
func (out *StatsSnapshot) setLatency(hs []*obs.Histogram) {
	bounds, counts := hs[0].Buckets() // the children share bounds
	sum := hs[0].Sum()
	for _, h := range hs[1:] {
		_, cs := h.Buckets()
		for i, c := range cs {
			counts[i] += c
		}
		sum += h.Sum()
	}
	for _, c := range counts {
		out.Latency.Count += c
	}
	if out.Latency.Count > 0 {
		out.Latency.MeanMS = sum / float64(out.Latency.Count)
	}
	out.Latency.P50MS = obs.HistQuantile(bounds, counts, 0.50)
	out.Latency.P95MS = obs.HistQuantile(bounds, counts, 0.95)
	out.Latency.P99MS = obs.HistQuantile(bounds, counts, 0.99)
	out.Latency.Buckets = make([]LatencyBucket, len(counts))
	for i, c := range counts {
		le := math.Inf(1)
		if i < len(bounds) {
			le = bounds[i]
		}
		out.Latency.Buckets[i] = LatencyBucket{LE: BucketBound(le), Count: c}
	}
}
