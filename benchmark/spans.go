package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// stopwatch. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the causing span, -1 for an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the span overhead itself is measured.
// Not safe for concurrent use: each load goroutine owns one.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to pass to end and to
// children as their parent.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// mergeSpans joins the spans of several recorders into one list on one
// clock, keeping every parent link pointing at the same span.
func mergeSpans(recs ...*recorder) []span {
	var out []span
	if len(recs) == 0 {
		return out
	}
	t0 := recs[0].t0
	for _, r := range recs {
		if r.t0.Before(t0) {
			t0 = r.t0
		}
	}
	for _, r := range recs {
		base, shift := len(out), int64(r.t0.Sub(t0))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Start += shift
			s.End += shift
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children may overlap each other, so the
// cover is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var cover int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.dur() - cover
	}
	return self
}

// rootTime sums the durations of the spans that have no parent: the
// wall time the ledger has to account for.
func rootTime(spans []span) int64 {
	var sum int64
	for _, s := range spans {
		if s.Parent < 0 {
			sum += s.dur()
		}
	}
	return sum
}

// ledgerTolerance is how far the layers' summed self time may sit from
// the wall time they are meant to explain.
const ledgerTolerance = 0.02

// checkLedger fails when the per-name self times do not add up to the
// wall: a span left open, a child outside its parent, or a layer timed
// twice all show up here.
func checkLedger(self map[string]int64, wall int64) error {
	var sum int64
	for _, v := range self {
		sum += v
	}
	if wall <= 0 {
		if sum == 0 {
			return nil
		}
		return fmt.Errorf("ledger: %d ns of self time against no wall time", sum)
	}
	if off := math.Abs(float64(sum-wall)) / float64(wall); off > ledgerTolerance {
		return fmt.Errorf("ledger: layers sum to %d ns, wall is %d ns (off by %.1f%%)", sum, wall, 100*off)
	}
	return nil
}

// writeTrace dumps the spans as JSON for offline inspection.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
