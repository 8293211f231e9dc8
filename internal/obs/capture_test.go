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
	return &QueryRecord{QueryID: id, Keywords: []string{"a", "b"}, Class: ClassKey(2, false), TotalMS: totalMS}
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

// TestWatchdogBreach: a stall more than sloMultiple times the query's
// own median trips the SLO; steady cadences (fast or slow), short
// queries and sub-floor jitter do not.
func TestWatchdogBreach(t *testing.T) {
	stalled := &EmissionSummary{Count: 5, MaxDelayMS: 80, DelaysMS: []float64{0.5, 0.5, 0.5, 0.5, 80}}
	if breach, max, med := checkSLO(stalled); !breach || max != 80 || med != 0.5 {
		t.Fatalf("stalled query: breach=%v max=%v median=%v, want breach at 80 vs 0.5", breach, max, med)
	}
	steady := &EmissionSummary{Count: 5, MaxDelayMS: 60, DelaysMS: []float64{40, 45, 50, 55, 60}}
	if breach, _, _ := checkSLO(steady); breach {
		t.Fatal("uniformly slow query flagged as a stall")
	}
	// The multiple is strict: 31x the median is not a breach, 33x is.
	under := &EmissionSummary{Count: 5, MaxDelayMS: 31, DelaysMS: []float64{1, 1, 1, 1, 31}}
	over := &EmissionSummary{Count: 5, MaxDelayMS: 33, DelaysMS: []float64{1, 1, 1, 1, 33}}
	if b1, _, _ := checkSLO(under); b1 {
		t.Fatal("breach at 31x the median")
	}
	if b2, _, _ := checkSLO(over); !b2 {
		t.Fatal("no breach at 33x the median")
	}
	// Too few emissions: median is noise, no verdict.
	tiny := &EmissionSummary{Count: 3, MaxDelayMS: 80, DelaysMS: []float64{0.5, 0.5, 80}}
	if breach, _, _ := checkSLO(tiny); breach {
		t.Fatal("breach on fewer than sloMinEmissions delays")
	}
	// Below the absolute floor: microsecond jitter is not a stall.
	jitter := &EmissionSummary{Count: 5, MaxDelayMS: 4.9, DelaysMS: []float64{0.01, 0.01, 0.01, 0.01, 4.9}}
	if breach, _, _ := checkSLO(jitter); breach {
		t.Fatal("breach below the sloMinDelayMS floor")
	}
	if breach, max, med := checkSLO(nil); breach || max != 0 || med != 0 {
		t.Fatal("nil emissions produced a verdict")
	}
}

// TestClassesWindow: observations land in the right class, the window
// ages out, and quantiles come from the merged slices.
func TestClassesWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	cl := NewClasses()
	cl.now = func() time.Time { return now }

	for i := 0; i < 100; i++ {
		rec := mkRec(fmt.Sprintf("q%d", i), 10)
		cl.Observe(rec)
	}
	idx := &QueryRecord{Keywords: []string{"a", "b", "c", "d", "e"}, Indexed: true, Class: ClassKey(5, true), TotalMS: 2, Errored: true}
	cl.Observe(idx)

	snaps := cl.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d classes, want 2: %+v", len(snaps), snaps)
	}
	// Sorted by class key: kw2/plain < kw4+/indexed.
	var plain, indexed *ClassSnapshot
	for i := range snaps {
		if snaps[i].Indexed {
			indexed = &snaps[i]
		} else {
			plain = &snaps[i]
		}
	}
	if plain == nil || indexed == nil {
		t.Fatalf("classes = %+v", snaps)
	}
	if plain.Class != "kw2/plain" || plain.Total != 100 || plain.WindowCount != 100 {
		t.Fatalf("plain class = %+v", plain)
	}
	if plain.RatePerSec != 100.0/60 {
		t.Errorf("rate = %v, want %v", plain.RatePerSec, 100.0/60)
	}
	if plain.P50MS <= 0 || plain.P50MS > 25 {
		t.Errorf("p50 = %v for uniform 10ms latencies", plain.P50MS)
	}
	if indexed.Class != "kw4+/indexed" || indexed.Keywords != "4+" || indexed.Errors != 1 {
		t.Fatalf("indexed class = %+v", indexed)
	}

	// Advance past the window: rates and quantiles drain, totals stay.
	now = now.Add(2 * time.Minute)
	snaps = cl.Snapshot()
	for _, s := range snaps {
		if s.WindowCount != 0 || s.RatePerSec != 0 {
			t.Errorf("window did not age out: %+v", s)
		}
	}
	if snaps[0].Total+snaps[1].Total != 101 {
		t.Errorf("cumulative totals lost on age-out: %+v", snaps)
	}
}

// TestClassKeyBuckets locks the bucket labels.
func TestClassKeyBuckets(t *testing.T) {
	cases := map[string]string{
		ClassKey(1, false): "kw1/plain",
		ClassKey(2, true):  "kw2/indexed",
		ClassKey(3, false): "kw3/plain",
		ClassKey(4, true):  "kw4+/indexed",
		ClassKey(9, true):  "kw4+/indexed",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("class key = %q, want %q", got, want)
		}
	}
}

// TestCollectorEndToEnd: a stalled query breaches, increments the
// counter, is force-captured, and lands in its class — while a healthy
// query does none of that.
func TestCollectorEndToEnd(t *testing.T) {
	col := NewCollector()

	// A healthy trace: steady sub-threshold delays.
	okSum := &Summary{
		Identity:  Identity{Keywords: []string{"a", "b"}, Rmax: 6},
		Emissions: &EmissionSummary{Count: 4, MaxDelayMS: 0.2, DelaysMS: []float64{0.1, 0.1, 0.2, 0.1}},
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
		Emissions: &EmissionSummary{Count: 5, MaxDelayMS: 90, DelaysMS: []float64{0.5, 0.5, 0.5, 0.5, 90}},
	}
	stallRec := NewQueryRecord(stallSum, Serving{QueryID: "q-stall", Endpoint: "all", Results: 5, Start: time.Now(), Elapsed: 95 * time.Millisecond})
	if !col.Observe(stallRec) {
		t.Fatal("stalled query did not breach")
	}
	if col.Breaches() != 1 {
		t.Fatalf("breaches = %d, want 1", col.Breaches())
	}
	if stallRec.Fingerprint != stallSum.Fingerprint || !stallRec.Indexed || stallRec.Class != "kw2/indexed" || stallRec.TotalMS != 95 {
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

	// Both classes visible.
	classes := col.Classes()
	if len(classes) != 2 {
		t.Fatalf("classes = %+v", classes)
	}
	for _, cs := range classes {
		if cs.Indexed && cs.SLOBreaches != 1 {
			t.Errorf("indexed class breaches = %d, want 1", cs.SLOBreaches)
		}
	}
}

// TestCollectorRegisterExposition: the collector's registry wiring
// produces a lint-clean exposition with labeled per-class families in
// a fixed label order.
func TestCollectorRegisterExposition(t *testing.T) {
	col := NewCollector()
	reg := NewRegistry()
	col.Register(reg)

	stallSum := &Summary{
		Identity:  Identity{Keywords: []string{"a", "b"}, Indexed: true},
		Emissions: &EmissionSummary{Count: 5, MaxDelayMS: 90, DelaysMS: []float64{0.5, 0.5, 0.5, 0.5, 90}},
	}
	col.Observe(NewQueryRecord(stallSum, Serving{QueryID: "q1", Endpoint: "all", Results: 5, Start: time.Now(), Elapsed: 95 * time.Millisecond}))
	col.Observe(NewQueryRecord(&Summary{Identity: Identity{Keywords: []string{"a", "b", "c"}}},
		Serving{QueryID: "q2", Endpoint: "topk", K: 10, Results: 10, Start: time.Now(), Elapsed: 2 * time.Millisecond}))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"commdb_emission_slo_breaches_total 1",
		`commdb_class_queries_total{indexed="true",keywords="2"} 1`,
		`commdb_class_queries_total{indexed="false",keywords="3"} 1`,
		`commdb_class_slo_breaches_total{indexed="true",keywords="2"} 1`,
		"# TYPE commdb_class_latency_p95_ms gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("labeled exposition failed lint: %v\n%s", err, out)
	}
}

// TestCaptureConcurrency hammers the capture ring and class aggregates
// from many goroutines while snapshotting — run under -race in CI.
func TestCaptureConcurrency(t *testing.T) {
	col := NewCollector()
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
				col.Classes()
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
