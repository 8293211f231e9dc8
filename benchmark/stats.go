package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a *_tail_ms metric may report,
// lowest first.
var tailCandidates = []float64{0.75, 0.90, 0.95, 0.99}

// minBeyond is how many samples must lie above a percentile's rank
// before the percentile is trusted as a tail.
const minBeyond = 10

// rank returns the nearest-rank index of the p-quantile among n sorted
// samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-quantile of sorted samples, or
// 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))]
}

// tailPercentile picks the highest candidate percentile that still has
// at least minBeyond samples above its rank. Below 40 samples no
// candidate qualifies and the lowest one is used, so small smoke runs
// still report a number.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n-1-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// samples collects one timing series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) p(q float64) float64 { return percentile(s.sorted(), q) }

// tail reports the series' tail percentile value.
func (s samples) tail() float64 { return s.p(tailPercentile(len(s))) }

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

func (s samples) mean() float64 { return ratio(s.sum(), float64(len(s))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 — per-layer ratios on workloads that
// never exercise the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
