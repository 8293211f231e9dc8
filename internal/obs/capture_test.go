package obs

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func mkRec(id string, totalMS float64) *QueryRecord {
	return &QueryRecord{QueryID: id, Keywords: []string{"a", "b"}, TotalMS: totalMS}
}

// TestCaptureSlowestN: the slow pool retains exactly the captureSlowN
// slowest queries, evicting the fastest member when a slower one
// arrives.
func TestCaptureSlowestN(t *testing.T) {
	var c Capture
	for i := 1; i <= captureSlowN+1; i++ {
		c.Observe(mkRec(fmt.Sprintf("q%d", i), float64(i)))
	}
	snap := c.Snapshot()
	if len(snap) != captureSlowN {
		t.Fatalf("retained %d records, want %d: %+v", len(snap), captureSlowN, snap)
	}
	for i := range snap {
		if want := float64(captureSlowN + 1 - i); snap[i].TotalMS != want {
			t.Errorf("snapshot[%d].TotalMS = %v, want %v (slowest first, fastest evicted)", i, snap[i].TotalMS, want)
		}
		if !hasReason(snap[i].Captured, CapturedSlow) {
			t.Errorf("record %s lacks %q reason: %v", snap[i].QueryID, CapturedSlow, snap[i].Captured)
		}
	}
}

// TestCaptureErroredAlwaysKept: errored queries are retained even when
// they are fast, and survive in the ring when the slow pool evicts them.
func TestCaptureErroredAlwaysKept(t *testing.T) {
	var c Capture
	bad := mkRec("bad", 0.001)
	bad.Errored = true
	bad.StopReason = "budget exhausted: relaxations"
	c.Observe(bad)
	for i := 0; i < captureSlowN+8; i++ {
		c.Observe(mkRec(fmt.Sprintf("slow%d", i), 100+float64(i)))
	}
	snap := c.Snapshot()
	found := false
	for _, r := range snap {
		if r.QueryID == "bad" {
			found = true
			if !hasReason(r.Captured, CapturedErrored) {
				t.Errorf("errored record reasons = %v", r.Captured)
			}
		}
	}
	if !found {
		t.Fatalf("errored record evicted: %+v", snap)
	}
}

// TestCaptureDeterministicSample: exactly one in every
// captureSampleEvery healthy queries is retained with the sampled
// reason.
func TestCaptureDeterministicSample(t *testing.T) {
	var c Capture
	for i := 0; i < 2*captureSampleEvery; i++ {
		c.Observe(mkRec(fmt.Sprintf("q%d", i), 1))
	}
	var sampled []string
	for _, r := range c.Snapshot() {
		if hasReason(r.Captured, CapturedSampled) {
			sampled = append(sampled, r.QueryID)
		}
	}
	sort.Strings(sampled)
	if want := []string{fmt.Sprint("q", captureSampleEvery-1), fmt.Sprint("q", 2*captureSampleEvery-1)}; !reflect.DeepEqual(sampled, want) {
		t.Fatalf("sampled %v of %d, want %v", sampled, 2*captureSampleEvery, want)
	}
}

// TestCaptureRingEviction: the ring holds at most captureRingSize
// records and evicts the oldest.
func TestCaptureRingEviction(t *testing.T) {
	var c Capture
	for i := 0; i <= captureRingSize; i++ {
		rec := mkRec(fmt.Sprintf("q%d", i), float64(i))
		rec.Errored = true
		c.Observe(rec)
	}
	// The ring keeps the most recent captureRingSize errored records; the
	// slow pool's members (the slowest, also the newest) are among them.
	snap := c.Snapshot()
	if len(snap) != captureRingSize {
		t.Fatalf("retained %d records, want the ring's %d", len(snap), captureRingSize)
	}
	for _, r := range snap {
		if r.QueryID == "q0" {
			t.Fatal("ring retained its oldest record past capacity")
		}
	}
	if observed, retained := c.Stats(); observed != captureRingSize+1 || retained != observed {
		t.Fatalf("stats = %d observed, %d retained", observed, retained)
	}
}

func hasReason(reasons []string, want string) bool {
	for _, r := range reasons {
		if r == want {
			return true
		}
	}
	return false
}

// emissions builds the summary a trace reports for a time to first
// result followed by gaps: DelaysMS carries both, MaxDelayMS only the
// gaps.
func emissions(firstMS float64, gapsMS ...float64) *EmissionSummary {
	e := &EmissionSummary{Count: int64(1 + len(gapsMS)), FirstMS: firstMS, DelaysMS: append([]float64{firstMS}, gapsMS...)}
	for _, g := range gapsMS {
		e.MaxDelayMS = max(e.MaxDelayMS, g)
	}
	return e
}

// TestWatchdogBreach: a stall more than sloMultiple times the query's
// own median gap trips the SLO; steady cadences (fast or slow), short
// queries, sub-floor jitter and a slow first result do not.
func TestWatchdogBreach(t *testing.T) {
	stalled := emissions(2, 0.5, 0.5, 0.5, 0.5, 80)
	if breach, max, med := checkSLO(stalled); !breach || max != 80 || med != 0.5 {
		t.Fatalf("stalled query: breach=%v max=%v median=%v, want breach at 80 vs 0.5", breach, max, med)
	}
	steady := emissions(40, 40, 45, 50, 55, 60)
	if breach, _, _ := checkSLO(steady); breach {
		t.Fatal("uniformly slow query flagged as a stall")
	}
	// The multiple is strict: 31x the median is not a breach, 33x is.
	if b1, _, _ := checkSLO(emissions(1, 1, 1, 1, 1, 31)); b1 {
		t.Fatal("breach at 31x the median")
	}
	if b2, _, _ := checkSLO(emissions(1, 1, 1, 1, 1, 33)); !b2 {
		t.Fatal("no breach at 33x the median")
	}
	// Too few gaps: median is noise, no verdict.
	if breach, _, _ := checkSLO(emissions(0.5, 0.5, 0.5, 80)); breach {
		t.Fatal("breach on fewer than sloMinGaps gaps")
	}
	// Below the absolute floor: microsecond jitter is not a stall.
	if breach, _, _ := checkSLO(emissions(0.01, 0.01, 0.01, 0.01, 0.01, 4.9)); breach {
		t.Fatal("breach below the sloMinDelayMS floor")
	}
	// The time to the first result (projection plus engine init) is not
	// a gap: 40ms before the first community, then steady 1ms gaps.
	if breach, max, med := checkSLO(emissions(40, 1, 1, 1, 1)); breach || max != 1 || med != 1 {
		t.Fatalf("slow first result: breach=%v max=%v median=%v, want no breach over 1ms gaps", breach, max, med)
	}
	if breach, max, med := checkSLO(emissions(90)); breach || max != 0 || med != 0 {
		t.Fatal("a single emission produced gap statistics")
	}
	if breach, max, med := checkSLO(nil); breach || max != 0 || med != 0 {
		t.Fatal("nil emissions produced a verdict")
	}
}

// TestCollectorEndToEnd: a stalled query breaches, increments the
// counter and is force-captured — while a healthy query does none of
// that.
func TestCollectorEndToEnd(t *testing.T) {
	var col Collector

	// A healthy trace: steady sub-threshold gaps.
	okSum := &Summary{
		Identity:  Identity{Keywords: []string{"a", "b"}, Rmax: 6},
		Emissions: emissions(3, 0.1, 0.1, 0.2, 0.1),
	}
	okRec := NewQueryRecord(okSum, Serving{QueryID: "q-ok", Endpoint: "topk", K: 10, Results: 10, Start: time.Now(), Elapsed: 3 * time.Millisecond})
	if col.Observe(okRec) {
		t.Fatal("healthy query breached")
	}
	if col.Breaches() != 0 {
		t.Fatal("breach counter moved on a healthy query")
	}

	// A stalled trace.
	stallSum := &Summary{
		Identity:  Identity{Fingerprint: "q1|rmax=6|cost=0|1:a|1:b", Keywords: []string{"a", "b"}, Rmax: 6, Indexed: true},
		Emissions: emissions(4, 0.5, 0.5, 0.5, 0.5, 90),
	}
	stallRec := NewQueryRecord(stallSum, Serving{QueryID: "q-stall", Endpoint: "all", Results: 6, Start: time.Now(), Elapsed: 95 * time.Millisecond})
	if !col.Observe(stallRec) {
		t.Fatal("stalled query did not breach")
	}
	if col.Breaches() != 1 {
		t.Fatalf("breaches = %d, want 1", col.Breaches())
	}
	if stallRec.Fingerprint != stallSum.Fingerprint || !stallRec.Indexed || len(stallRec.Keywords) != 2 || stallRec.TotalMS != 95 {
		t.Fatalf("record is not a view of its trace: %+v", stallRec)
	}
	if stallRec.MaxEmissionDelayMS != 90 || stallRec.MedianEmissionDelayMS != 0.5 {
		t.Fatalf("delay stats = max %v median %v", stallRec.MaxEmissionDelayMS, stallRec.MedianEmissionDelayMS)
	}

	// The breach leads the slow-log, and its reasons name the breach.
	log := col.SlowLog()
	if len(log) == 0 || log[0].QueryID != "q-stall" || !hasReason(log[0].Captured, CapturedBreach) {
		t.Fatalf("slow-log = %+v", log)
	}
	if observed, _ := col.CaptureStats(); observed != 2 {
		t.Fatalf("observed = %d, want 2", observed)
	}
}

// TestCollectorRegisterExposition: the collector's registry wiring
// produces a lint-clean exposition of its counters.
func TestCollectorRegisterExposition(t *testing.T) {
	var col Collector
	reg := NewRegistry()
	col.Register(reg)

	stallSum := &Summary{
		Identity:  Identity{Keywords: []string{"a", "b"}, Indexed: true},
		Emissions: emissions(1, 0.5, 0.5, 0.5, 0.5, 90),
	}
	col.Observe(NewQueryRecord(stallSum, Serving{QueryID: "q1", Endpoint: "all", Results: 6, Start: time.Now(), Elapsed: 95 * time.Millisecond}))
	col.Observe(NewQueryRecord(&Summary{Identity: Identity{Keywords: []string{"a", "b", "c"}}},
		Serving{QueryID: "q2", Endpoint: "topk", K: 10, Results: 10, Start: time.Now(), Elapsed: 2 * time.Millisecond}))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"commdb_emission_slo_breaches_total 1",
		"commdb_capture_observed_total 2",
		"commdb_capture_retained_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition failed lint: %v\n%s", err, out)
	}
}

// TestCaptureConcurrency hammers the capture ring from many goroutines
// while snapshotting — run under -race in CI.
func TestCaptureConcurrency(t *testing.T) {
	var col Collector
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := mkRec(fmt.Sprintf("w%d-%d", w, i), float64(i%50))
				rec.Errored = i%17 == 0
				col.Observe(rec)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				col.SlowLog()
				col.CaptureStats()
			}
		}()
	}
	wg.Wait()
	observed, retained := col.CaptureStats()
	if observed != 1600 {
		t.Fatalf("observed = %d, want 1600", observed)
	}
	if retained == 0 || retained > observed {
		t.Fatalf("retained = %d out of %d", retained, observed)
	}
}
