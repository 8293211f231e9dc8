package prof

import (
	"sync"
	"time"
)

// Stages accumulates named wall-clock timings for pipeline phases
// (to_graph, dirty_terms, region_repair, posting merge, fulltext
// rebuild, epoch publish, ...). It follows the same nil-safety
// contract as obs.Trace: every method on a nil *Stages is a cheap
// no-op that allocates nothing, so instrumented code paths pay zero
// overhead when accounting is disabled. Safe for concurrent use —
// worker pools add their per-worker time into the same stage, so a
// parallel stage's total can exceed wall time (it is CPU time across
// workers, documented in DESIGN).
type Stages struct {
	mu sync.Mutex
	ns map[string]int64
}

// NewStages returns an enabled stage accumulator.
func NewStages() *Stages {
	return &Stages{ns: make(map[string]int64, 8)}
}

// noopEnd is the shared no-op returned by Timer on a nil receiver, so
// the disabled path performs no closure allocation.
var noopEnd = func() {}

// Timer starts a named stage and returns its stop function:
//
//	defer st.Timer("to_graph")()
//
// On a nil receiver it returns a shared no-op without allocating.
func (s *Stages) Timer(name string) func() {
	if s == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { s.Add(name, time.Since(start)) }
}

// Add folds d into the named stage's cumulative time. No-op on nil.
func (s *Stages) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ns[name] += int64(d)
	s.mu.Unlock()
}

// SnapshotMS returns the per-stage cumulative milliseconds. Returns
// nil on a nil receiver or when nothing was recorded.
func (s *Stages) SnapshotMS() map[string]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ns) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.ns))
	for k, v := range s.ns {
		out[k] = float64(v) / 1e6
	}
	return out
}
