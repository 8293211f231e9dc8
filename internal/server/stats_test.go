package server

// Direct unit tests of the /statsz query_latency block: the process
// latency histogram's keywords children summed and rendered through
// obs.HistQuantile.

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"commdb"
	"commdb/internal/obs"
)

// latencySnapshot observes ms into a fresh latency histogram, spread
// round-robin over its keywords children, and renders it the way
// /statsz does.
func latencySnapshot(ms []float64) StatsSnapshot {
	hs := obs.NewRegistry().Histograms("commdb_query_latency_ms", "", latencyBucketsMS[:], "keywords", keywordLabels[:])
	for i, m := range ms {
		hs[i%len(hs)].Observe(m)
	}
	var snap StatsSnapshot
	snap.setLatency(hs)
	return snap
}

// TestKeywordBucket locks the keywords label values: a normalized
// keyword count of four or more shares one child.
func TestKeywordBucket(t *testing.T) {
	for n, want := range map[int]string{1: "1", 2: "2", 3: "3", 4: "4+", 9: "4+"} {
		if got := keywordLabels[keywordBucket(n)]; got != want {
			t.Errorf("keywordBucket(%d) = %q, want %q", n, got, want)
		}
	}
}

// quantileFromObservations reads one quantile of ms back, exercising
// the same bucketing /statsz uses.
func quantileFromObservations(t *testing.T, ms []float64, q float64) float64 {
	t.Helper()
	snap := latencySnapshot(ms)
	switch q {
	case 0.50:
		return snap.Latency.P50MS
	case 0.95:
		return snap.Latency.P95MS
	case 0.99:
		return snap.Latency.P99MS
	}
	t.Fatalf("unsupported quantile %v", q)
	return 0
}

// TestHistQuantileEmpty: no observations yield zero quantiles, not NaN
// or a bucket bound.
func TestHistQuantileEmpty(t *testing.T) {
	snap := latencySnapshot(nil)
	if snap.Latency.P50MS != 0 || snap.Latency.P95MS != 0 || snap.Latency.P99MS != 0 {
		t.Fatalf("empty histogram quantiles = %v/%v/%v, want 0",
			snap.Latency.P50MS, snap.Latency.P95MS, snap.Latency.P99MS)
	}
	if snap.Latency.MeanMS != 0 || snap.Latency.Count != 0 {
		t.Fatalf("empty histogram mean=%v count=%d", snap.Latency.MeanMS, snap.Latency.Count)
	}
}

// TestHistQuantileSingleSample: with one observation every quantile
// lands inside that observation's bucket.
func TestHistQuantileSingleSample(t *testing.T) {
	for _, q := range []float64{0.50, 0.95, 0.99} {
		got := quantileFromObservations(t, []float64{7}, q)
		// 7ms lands in the (5, 10] bucket; interpolation stays inside it.
		if got <= 5 || got > 10 {
			t.Errorf("p%v of a single 7ms sample = %v, want within (5, 10]", q*100, got)
		}
	}
}

// TestHistQuantileExactBucketBoundary: an observation exactly on a
// bucket's upper bound counts in that bucket (bounds are inclusive),
// and the quantile of N identical boundary samples is the bound.
func TestHistQuantileExactBucketBoundary(t *testing.T) {
	snap := latencySnapshot(repeat(10, 100)) // exactly the 10ms bound
	// All mass is in the (5, 10] bucket: its count is 100 and the next
	// bucket is empty.
	var bucket10, bucket25 int64
	for _, b := range snap.Latency.Buckets {
		switch float64(b.LE) {
		case 10:
			bucket10 = b.Count
		case 25:
			bucket25 = b.Count
		}
	}
	if bucket10 != 100 || bucket25 != 0 {
		t.Fatalf("boundary sample mis-bucketed: le=10 count=%d, le=25 count=%d", bucket10, bucket25)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		got := quantileFromObservations(t, repeat(10, 100), q)
		if got <= 5 || got > 10 {
			t.Errorf("p%v of 100 exact-boundary samples = %v, want within (5, 10]", q*100, got)
		}
	}
}

// TestHistQuantileInterpolation: a known mixture interpolates linearly
// within the containing bucket.
func TestHistQuantileInterpolation(t *testing.T) {
	// 50 samples in (1, 2], 50 samples in (25, 50]: p50 must sit at the
	// top of the first group's bucket, p95 inside the second group's.
	ms := append(repeat(1.5, 50), repeat(30, 50)...)
	p50 := quantileFromObservations(t, ms, 0.50)
	if p50 <= 1 || p50 > 2 {
		t.Errorf("p50 = %v, want within (1, 2]", p50)
	}
	p95 := quantileFromObservations(t, ms, 0.95)
	if p95 <= 25 || p95 > 50 {
		t.Errorf("p95 = %v, want within (25, 50]", p95)
	}
	// Exact interpolation arithmetic: rank 50 of 100 falls exactly at
	// the first group's cumulative count, so p50 is that bucket's upper
	// bound.
	counts := make([]int64, len(latencyBucketsMS)+1)
	counts[1] = 50 // (1, 2]
	counts[5] = 50 // (25, 50]
	if got := obs.HistQuantile(latencyBucketsMS[:], counts, 0.50); got != 2 {
		t.Errorf("HistQuantile p50 = %v, want exactly 2 (rank on cumulative boundary)", got)
	}
	// Rank 95 → 45th sample of the second bucket: 25 + (45/50)*(50-25).
	want := 25 + (45.0/50.0)*25
	if got := obs.HistQuantile(latencyBucketsMS[:], counts, 0.95); math.Abs(got-want) > 1e-9 {
		t.Errorf("HistQuantile p95 = %v, want %v", got, want)
	}
}

// TestHistQuantileInfOverflow: observations beyond the last finite
// bound land in the +Inf bucket and quantiles report the last finite
// bound rather than infinity.
func TestHistQuantileInfOverflow(t *testing.T) {
	snap := latencySnapshot(repeat(3.6e6, 10)) // an hour: far beyond the 10000ms last bound
	last := snap.Latency.Buckets[len(snap.Latency.Buckets)-1]
	if !math.IsInf(float64(last.LE), 1) || last.Count != 10 {
		t.Fatalf("+Inf bucket = %+v, want all 10 samples", last)
	}
	lastFinite := latencyBucketsMS[len(latencyBucketsMS)-1]
	for _, q := range []float64{0.50, 0.95, 0.99} {
		got := quantileFromObservations(t, repeat(3.6e6, 10), q)
		if got != lastFinite {
			t.Errorf("p%v of overflow-only samples = %v, want last finite bound %v", q*100, got, lastFinite)
		}
		if math.IsInf(got, 1) || math.IsNaN(got) {
			t.Errorf("p%v produced %v", q*100, got)
		}
	}
}

// TestHistQuantileMonotone: quantiles never decrease as q rises.
func TestHistQuantileMonotone(t *testing.T) {
	ms := append(append(repeat(0.5, 30), repeat(8, 40)...), repeat(300, 30)...)
	snap := latencySnapshot(ms)
	if !(snap.Latency.P50MS <= snap.Latency.P95MS && snap.Latency.P95MS <= snap.Latency.P99MS) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v",
			snap.Latency.P50MS, snap.Latency.P95MS, snap.Latency.P99MS)
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// failAllEngine rejects every COMM-all query before a stream exists.
type failAllEngine struct{ fakeEngine }

func (e *failAllEngine) All(context.Context, commdb.Query) (Stream, error) {
	return nil, errors.New("engine refuses")
}

// TestLatencyCountsAgreeAfterFailedAll: an execution that fails before
// its stream starts is still one execution — /statsz query_latency and
// the commdb_query_latency_ms histogram must count it alike (they are
// one histogram).
func TestLatencyCountsAgreeAfterFailedAll(t *testing.T) {
	srv := NewWithEngine(&failAllEngine{fakeEngine{n: 1}}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a"}, nil))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("failed all answered %d, want 400", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a"}, nil)).Body.Close()

	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	m := regexp.MustCompile(`(?m)^commdb_query_latency_ms_count\{keywords="1"\} (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("no commdb_query_latency_ms_count in /metricsz:\n%s", body)
	}
	if got := srv.Stats().Latency.Count; strconv.FormatInt(got, 10) != string(m[1]) || got != 2 {
		t.Fatalf("/statsz query_latency.count = %d, commdb_query_latency_ms_count = %s, want both 2", got, m[1])
	}
}

// TestStatszLatencySumsKeywordChildren: /statsz query_latency is the
// keywords children of commdb_query_latency_ms summed — every bucket,
// the count and the mean.
func TestStatszLatencySumsKeywordChildren(t *testing.T) {
	srv := NewWithEngine(&fakeEngine{n: 1}, Config{CacheEntries: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, kws := range [][]string{{"a"}, {"a", "b"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d", "e"}} {
		postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, kws, nil)).Body.Close()
	}
	body := string(getBody(t, ts.URL+"/metricsz"))
	children := map[string]bool{}
	buckets := map[string]int64{} // le → count summed over children
	var count int64
	var sum float64
	sample := regexp.MustCompile(`(?m)^commdb_query_latency_ms_(bucket|sum|count)\{keywords="([^"]+)"(?:,le="([^"]+)")?\} (\S+)$`)
	for _, m := range sample.FindAllStringSubmatch(body, -1) {
		children[m[2]] = true
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch m[1] {
		case "bucket":
			buckets[m[3]] += int64(v)
		case "sum":
			sum += v
		case "count":
			count += int64(v)
		}
	}
	if len(children) != len(keywordLabels) {
		t.Fatalf("children %v, want one per keywords label %v", children, keywordLabels)
	}
	lat := srv.Stats().Latency
	if count != 5 || lat.Count != count || math.Abs(lat.MeanMS-sum/float64(count)) > 1e-9 {
		t.Fatalf("/statsz count %d mean %v; children count %d mean %v", lat.Count, lat.MeanMS, count, sum/float64(count))
	}
	// Prometheus buckets are cumulative, /statsz buckets are not.
	var cum int64
	for _, b := range lat.Buckets {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(float64(b.LE), 1) {
			le = strconv.FormatFloat(float64(b.LE), 'g', -1, 64)
		}
		if buckets[le] != cum {
			t.Errorf("le=%s: /statsz cumulative %d, children sum %d", le, cum, buckets[le])
		}
	}
}
