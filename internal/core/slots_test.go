package core

import (
	"math"
	"math/rand"
	"testing"

	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// TestSlotAggregateInvariant drives the engine's slot machinery through
// random interleavings of full-set installs, singleton pins, and
// arbitrary subset runs, and after every operation recomputes the
// per-node (sum, cnt) aggregates from scratch to verify the incremental
// maintenance (including the cached full-set fast path and buffer
// recycling) never drifts.
func TestSlotAggregateInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 10; trial++ {
		g, kws := randomKeywordGraph(t, rng, 25, 80, 3)
		e, err := NewEngine(g, nil, kws, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !e.HasAllKeywords() {
			continue
		}
		ws := sssp.NewWorkspace(g)
		check := NewOracleChecker(g, e, ws)
		for i := 0; i < e.l; i++ {
			e.setSlotFull(i)
			check.record(i, e.keywordNodes[i])
		}
		check.verify(t, trial, -1)
		for step := 0; step < 120; step++ {
			i := rng.Intn(e.l)
			switch rng.Intn(3) {
			case 0:
				e.setSlotFull(i)
				check.record(i, e.keywordNodes[i])
			case 1:
				vi := e.keywordNodes[i]
				v := vi[rng.Intn(len(vi))]
				e.setSlotSingle(i, v)
				check.record(i, []graph.NodeID{v})
			default:
				// Random subset of V_i (possibly empty).
				var seeds []graph.NodeID
				for _, v := range e.keywordNodes[i] {
					if rng.Intn(2) == 0 {
						seeds = append(seeds, v)
					}
				}
				e.setSlot(i, seeds)
				check.record(i, seeds)
			}
			check.verify(t, trial, step)
		}
		// clearSlots returns everything to zero.
		e.clearSlots()
		for v := range e.agg.Count {
			if e.agg.Count[v] != 0 || e.agg.Sum[v] != 0 {
				t.Fatalf("trial %d: aggregates non-zero after clearSlots", trial)
			}
		}
	}
}

// OracleChecker recomputes slot aggregates from scratch.
type OracleChecker struct {
	g     *graph.Graph
	e     *Engine
	ws    *sssp.Workspace
	seeds [][]graph.NodeID
}

func NewOracleChecker(g *graph.Graph, e *Engine, ws *sssp.Workspace) *OracleChecker {
	return &OracleChecker{g: g, e: e, ws: ws, seeds: make([][]graph.NodeID, e.l)}
}

func (c *OracleChecker) record(i int, seeds []graph.NodeID) {
	c.seeds[i] = append([]graph.NodeID(nil), seeds...)
}

func (c *OracleChecker) verify(t *testing.T, trial, step int) {
	t.Helper()
	n := c.g.NumNodes()
	wantSum := make([]float64, n)
	wantCnt := make([]int16, n)
	res := sssp.NewResult(n)
	for i := 0; i < c.e.l; i++ {
		c.ws.RunFromNodes(sssp.Reverse, c.seeds[i], c.e.rmax, res)
		for _, v := range res.Visited() {
			d, _ := res.Dist(v)
			wantSum[v] += d
			wantCnt[v]++
		}
	}
	for v := 0; v < n; v++ {
		if c.e.agg.Count[v] != wantCnt[v] {
			t.Fatalf("trial %d step %d: cnt[%d] = %d, oracle %d", trial, step, v, c.e.agg.Count[v], wantCnt[v])
		}
		if math.Abs(c.e.agg.Sum[v]-wantSum[v]) > 1e-9 {
			t.Fatalf("trial %d step %d: sum[%d] = %v, oracle %v", trial, step, v, c.e.agg.Sum[v], wantSum[v])
		}
	}
}
