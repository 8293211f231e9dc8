package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on a database a
// hundredth the size with a tenth of the operations, so that `go test
// ./...` keeps the benchmark building, its answers checked and every
// named metric emitted.
func TestSmoke(t *testing.T) {
	cfg := config{authors: 2000, deltaAuthors: 2000, seed: 3, seconds: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line := r.line(defs)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, line.Failed, line.Attempted, r.problems)
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.name, m, ok)
				}
			}
			t.Logf("%s traced=%v: %d ops, %v", w.name, traced, line.Attempted, r.counts)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			if !traced {
				for _, name := range []string{"setup_s", "heap_live_mb", "queries_per_s", "query_p50_ms"} {
					if line.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, line.Metrics[name].Value)
					}
				}
			}
		}
	}
}
