package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"commdb/internal/obs"
	"commdb/internal/sssp"
)

var updateEnumGolden = flag.Bool("update-enum-golden", false, "rewrite testdata/enum_work.golden.json")

const enumGoldenPath = "testdata/enum_work.golden.json"

// enumCase is one seeded random query: small integer weights make
// equal-cost centres and equal-cost cores common, so tie order shows.
type enumCase struct {
	name     string
	seed     int64
	keywords []string
	rmax     float64
}

// enumCases returns the random instances the work golden and the delay
// bound share. Keywords are drawn with replacement, so some queries
// repeat a keyword and the same node can sit at two core positions.
func enumCases() []enumCase {
	var out []enumCase
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		l := 2 + rng.Intn(3)
		kws := make([]string, l)
		for i := range kws {
			kws[i] = fmt.Sprintf("k%d", rng.Intn(3))
		}
		out = append(out, enumCase{
			name:     fmt.Sprintf("seed%02d", seed),
			seed:     seed,
			keywords: kws,
			rmax:     float64(4 + 2*rng.Intn(3)),
		})
	}
	return out
}

// engine builds the case's graph and a traced engine over it.
func (c enumCase) engine(t testing.TB) (*Engine, *obs.Trace) {
	t.Helper()
	g, _ := randomKeywordGraph(t, rand.New(rand.NewSource(c.seed)), 40, 120, 3)
	e, err := NewEngine(g, nil, c.keywords, c.rmax)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(c.name)
	e.SetTrace(tr)
	return e, tr
}

// enumWorkCap bounds each drain; the can-list and subspace tree are
// deep well before it.
const enumWorkCap = 150

var enumWorkCounters = []string{"neighbor_runs", "bestcore_scans", "dijkstra_visits", "dijkstra_relaxations"}

// counterSnapshot reads the trace's work counters.
func counterSnapshot(tr *obs.Trace) []int64 {
	s := tr.Summary()
	out := make([]int64, len(enumWorkCounters))
	for i, c := range enumWorkCounters {
		out[i] = s.Counters[c]
	}
	return out
}

// enumWorkDigest drains src to enumWorkCap and hashes, per call
// (the terminating one included), the core, the cost's bits and the
// work counters' deltas.
func enumWorkDigest(src CoreSource, tr *obs.Trace) (string, int) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	prev := counterSnapshot(tr)
	n := 0
	for n < enumWorkCap {
		cc, ok := src.NextCore()
		cur := counterSnapshot(tr)
		for i := range cur {
			put(uint64(cur[i] - prev[i]))
		}
		prev = cur
		if !ok {
			break
		}
		n++
		put(uint64(len(cc.Core)))
		for _, v := range cc.Core {
			put(uint64(v))
		}
		put(math.Float64bits(cc.Cost))
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// enumWorkCases runs every case under both enumerators and the sum and
// max rankers, returning one "<digest> <emitted>" line per run.
func enumWorkCases(t *testing.T) map[string]string {
	got := make(map[string]string)
	for _, c := range enumCases() {
		for _, algo := range []string{"all", "topk"} {
			for _, rk := range []Ranker{SumRanker(), MaxRanker()} {
				e, tr := c.engine(t)
				e.SetRanker(rk)
				var src CoreSource = NewAll(e)
				if algo == "topk" {
					src = NewTopK(e)
				}
				d, n := enumWorkDigest(src, tr)
				got[fmt.Sprintf("%s/%s/%s", c.name, algo, rk.Name())] = fmt.Sprintf("%s %d", d, n)
			}
		}
	}
	return got
}

// TestEnumerationWorkGolden pins both enumerators' answers, tie order
// and per-call work on random instances: any change to the subspace
// split, the seed sets or the order of slot installs moves a digest
// (the aggregate table keeps float sums, so even the install order can
// decide an equal-cost centre). Regenerate deliberately with
//
//	go test ./internal/core -run TestEnumerationWorkGolden -update-enum-golden
func TestEnumerationWorkGolden(t *testing.T) {
	got := enumWorkCases(t)
	if *updateEnumGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(enumGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(enumGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %q, golden %q", k, got[k], w)
		}
	}
}

// TestEnumeratorAllocs bounds the heap allocations of one NextCore
// call in steady state: only the emitted Core (and, for PDk, the
// can-list entries it enheaps) may allocate; subspace bookkeeping,
// seed sets and BestCore's scratch do not. PDall allocates the Core it
// emits. PDk allocates, per enheaped child, its Core, its heap node and
// its exclusion list; on this query it enheaps about 2.3 children per
// call.
func TestEnumeratorAllocs(t *testing.T) {
	g, kws := randomKeywordGraph(t, rand.New(rand.NewSource(7)), 400, 1600, 3)
	for _, tc := range []struct {
		name string
		mk   func(*Engine) CoreSource
		max  float64
	}{
		{"all", func(e *Engine) CoreSource { return NewAll(e) }, 1},
		{"topk", func(e *Engine) CoreSource { return NewTopK(e) }, 7},
	} {
		e, err := NewEngineCfg(g, nil, kws, 8, EngineConfig{Pool: sssp.NewPoolFor(g.NumNodes())})
		if err != nil {
			t.Fatal(err)
		}
		src := tc.mk(e)
		for i := 0; i < 5; i++ {
			if _, ok := src.NextCore(); !ok {
				t.Fatalf("%s: exhausted during warm-up", tc.name)
			}
		}
		got := testing.AllocsPerRun(50, func() {
			if _, ok := src.NextCore(); !ok {
				t.Fatalf("%s: exhausted during measurement", tc.name)
			}
		})
		t.Logf("%s: %.1f allocs per NextCore", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per NextCore, want <= %v", tc.name, got, tc.max)
		}
	}
}

// TestGetCommunityAllocs: Algorithm 4 seeds its runs from buffers the
// workspace and the scratch own, so a materialization allocates only
// the community it returns (its lists, their growth and the two
// classification maps), never a []Seed per run. The count is exact for
// this input: 35, where a fresh []Seed per run made it 38.
func TestGetCommunityAllocs(t *testing.T) {
	g, kws := randomKeywordGraph(t, rand.New(rand.NewSource(7)), 400, 1600, 3)
	e, err := NewEngineCfg(g, nil, kws, 8, EngineConfig{Pool: sssp.NewPoolFor(g.NumNodes())})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cc, ok := NewTopK(e).NextCore()
	if !ok {
		t.Fatal("no community")
	}
	e.GetCommunity(cc.Core) // sizes the scratch
	got := testing.AllocsPerRun(50, func() { e.GetCommunity(cc.Core) })
	t.Logf("%.1f allocs per GetCommunity", got)
	if got > 35 {
		t.Errorf("%.1f allocs per GetCommunity, want <= 35", got)
	}
}
