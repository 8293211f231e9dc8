package main

import "testing"

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0.75}, // nothing qualifies: lowest candidate
		{39, 0.75},
		{40, 0.75}, // rank 29, ten above
		{99, 0.75},
		{100, 0.90},
		{199, 0.90},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 40 {
			if beyond := tc.n - 1 - rank(tc.want, tc.n); beyond < minBeyond {
				t.Errorf("n=%d p=%v leaves %d samples beyond", tc.n, tc.want, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0.5, 3}, {0.2, 1}, {0.21, 2}, {1, 5}, {0, 1}} {
		if got := s.p(tc.p); got != tc.want {
			t.Errorf("p(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := (samples{}).p(0.5); got != 0 {
		t.Errorf("empty series: %v, want 0", got)
	}
	if got := s.mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}
