package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"commdb/internal/fulltext"
	"commdb/internal/govern"
	"commdb/internal/graph"
	"commdb/internal/obs"
	"commdb/internal/sssp"
)

// ErrNoKeywords is returned when a query contains no keywords.
var ErrNoKeywords = errors.New("core: query needs at least one keyword")

// Engine holds the per-query state shared by the enumeration
// algorithms: the keyword node sets V_i, one neighborSet slot N_i per
// keyword, and the paper's per-node (nearest knode, total weight,
// counter) table that answers BestCore's probe of each candidate
// centre in O(1) (Section IV-A).
//
// An Engine is bound to one graph, one keyword list and one Rmax. It is
// not safe for concurrent use; create one Engine per running query.
type Engine struct {
	g    *graph.Graph
	ws   *sssp.Workspace
	rmax float64
	l    int

	// pool, when non-nil, is where ws, the worker workspaces and every
	// graph-sized result and table of the query came from, and where
	// Close returns them. par is the engine's parallelism degree; <= 1
	// means strictly sequential.
	pool *sssp.Pool
	par  int

	// keywordNodes[i] is V_i: all nodes containing keyword i.
	keywordNodes [][]graph.NodeID
	// keywordTerms[i] is keyword i's normalized (tokenized) term — the
	// key the neighbor source is probed with.
	keywordTerms []string

	// nbr[i] is the current neighborSet N_i: a bounded reverse-Dijkstra
	// result whose Src/Dist give the paper's src(N_i,u) and min(N_i,u).
	nbr []*sssp.Result
	// slotState describes what each slot currently holds so identical
	// re-installs are skipped.
	slotState []slotDesc
	// full caches Neighbor(V_i): the full keyword-set run never changes
	// within a query, and the enumerators restore it constantly
	// (Algorithm 1 line 20, Algorithm 5 line 31).
	full []*sssp.Result
	// free recycles result buffers.
	free []*sssp.Result

	// agg aggregates over slots: agg.Sum[u] is u's total distance and
	// agg.Count[u] the number of slots in which u is settled.
	// Count[u] == l marks a candidate center (the paper's third element).
	agg *sssp.Tally

	// gc is the engine's own GetCommunity scratch (Algorithm 4),
	// lazily allocated; pipeline workers use private gcScratch values
	// instead so materializations run concurrently. spare holds the
	// finished workers' scratches until Close recycles them.
	gc    *gcScratch
	spare []*gcScratch

	// neighborRuns counts Dijkstra invocations, exposed for the
	// benchmark harness and complexity tests. Atomic because the
	// parallel-init fanout and pipeline workers increment it
	// concurrently.
	neighborRuns atomic.Int64

	// noSlotCache disables full-set memoization and the unchanged-pin
	// skip, for the ablation benchmark only.
	noSlotCache bool

	// budget, when non-nil, governs the query: Dijkstra runs and the
	// BestCore scans charge it, and the enumerators stop early with the
	// budget's stop reason once it trips. nil means unlimited.
	budget *govern.Budget

	// tr, when non-nil, receives the query's engine counters (neighbor
	// runs, BestCore scans, GetCommunity calls) and, through the
	// workspace, the per-run Dijkstra counters. nil means untraced.
	tr *obs.Trace

	// ranker aggregates per-keyword distances into a cost; never nil
	// (the paper's summed distances unless SetRanker changed it).
	ranker Ranker
	// rankBuf is bestCore's per-center distance scratch (bestCore is
	// engine-sequential, so one buffer).
	rankBuf []float64
	// seeds and excl are the slot runs' seed scratch and split's
	// exclusion scratch, reused across probes.
	seeds []sssp.Seed
	excl  []graph.NodeID

	// nsrc, when non-nil, supplies precomputed full keyword-set runs
	// (the kwcache artifact store); full-set sites consult it before
	// running a live Dijkstra. Charged identically to a live run, so
	// budgets and counters are unaffected by where the set came from.
	nsrc NeighborSource
}

// SetRanker switches the cost aggregate; nil selects the paper's
// summed distances, the default. The ranker must be monotone in every
// component (the enumeration orders of Algorithms 1 and 5 rely on it)
// and its Cost method must be safe for concurrent calls:
// materialization pipeline workers rank communities in parallel. It
// must be called before the first enumeration step.
func (e *Engine) SetRanker(r Ranker) {
	if r == nil {
		r = sumRanker{}
	}
	e.ranker = r
}

// SetBudget installs a governance budget on the engine and its
// shortest-path workspace. It must be called before the first
// enumeration step; nil (the default) means unlimited.
func (e *Engine) SetBudget(b *govern.Budget) {
	e.budget = b
	e.ws.SetBudget(b)
}

// Budget returns the engine's governance budget, nil when unlimited.
func (e *Engine) Budget() *govern.Budget { return e.budget }

// SetTrace installs a query trace on the engine and its shortest-path
// workspace. It must be called before the first enumeration step; nil
// (the default) means untraced.
func (e *Engine) SetTrace(t *obs.Trace) {
	e.tr = t
	e.ws.SetTrace(t)
}

// Trace returns the engine's trace, nil when untraced.
func (e *Engine) Trace() *obs.Trace { return e.tr }

// CostOf aggregates one center's per-keyword distances under the
// engine's ranker.
func (e *Engine) CostOf(dists []float64) float64 { return e.ranker.Cost(dists) }

// DisableSlotCache turns off the engine's Neighbor memoization so every
// slot install recomputes its bounded Dijkstra, exactly as the paper's
// pseudocode is written. Exists for the ablation benchmark.
func (e *Engine) DisableSlotCache() { e.noSlotCache = true }

// NeighborSource supplies precomputed full keyword-set neighbor runs:
// the query-independent Neighbor(V_term) results a kwcache artifact
// store persists. FullSet loads term's neighbor set truncated to rmax
// into res and reports whether it could; on false the caller runs the
// live Dijkstra. Implementations must be safe for concurrent use (the
// parallel init fan-out probes from several workers) and must serve
// sets byte-identical to a live run at rmax — settle order, distances,
// sources and via hops — or enumeration determinism breaks.
type NeighborSource interface {
	FullSet(term string, rmax float64, res *sssp.Result) bool
}

// EngineConfig tunes an engine's execution strategy. The zero value is
// the strictly sequential engine with private workspaces.
type EngineConfig struct {
	// Pool supplies (and reclaims, via Engine.Close) the engine's
	// graph-sized state: shortest-path workspaces, results and the
	// aggregate table. nil allocates them privately.
	Pool *sssp.Pool
	// Parallelism is the number of worker goroutines PrecomputeNeighborSets
	// and the materialization pipeline may use. Values <= 1 keep every
	// code path strictly sequential.
	Parallelism int
	// Neighbors, when non-nil, serves precomputed full keyword-set runs
	// in place of live engine-init Dijkstras.
	Neighbors NeighborSource
}

// NewEngine prepares a query against g. Keywords are matched after
// tokenization (each must be a single term). ix may be nil, in which
// case keyword nodes are found by scanning the graph. The engine is
// strictly sequential; use NewEngineCfg for parallel execution.
func NewEngine(g *graph.Graph, ix *fulltext.Index, keywords []string, rmax float64) (*Engine, error) {
	return NewEngineCfg(g, ix, keywords, rmax, EngineConfig{})
}

// NewEngineCfg is NewEngine with an execution configuration.
func NewEngineCfg(g *graph.Graph, ix *fulltext.Index, keywords []string, rmax float64, cfg EngineConfig) (*Engine, error) {
	if len(keywords) == 0 {
		return nil, ErrNoKeywords
	}
	// Note the IsNaN check cannot be folded into the < 0 comparison:
	// NaN compares false against everything and would otherwise slip
	// through and poison every distance comparison downstream.
	if math.IsNaN(rmax) || math.IsInf(rmax, 0) {
		return nil, fmt.Errorf("core: non-finite Rmax %v", rmax)
	}
	if rmax < 0 {
		return nil, fmt.Errorf("core: negative Rmax %v", rmax)
	}
	l := len(keywords)
	n := g.NumNodes()
	if cfg.Parallelism > 1 && cfg.Pool == nil {
		cfg.Pool = sssp.NewPoolFor(n)
	}
	e := &Engine{
		g:            g,
		ws:           cfg.Pool.Get(g), // nil-pool Get allocates fresh
		pool:         cfg.Pool,
		par:          cfg.Parallelism,
		rmax:         rmax,
		l:            l,
		keywordNodes: make([][]graph.NodeID, l),
		keywordTerms: make([]string, l),
		nbr:          make([]*sssp.Result, l),
		slotState:    make([]slotDesc, l),
		full:         make([]*sssp.Result, l),
		agg:          cfg.Pool.GetTally(n),
		nsrc:         cfg.Neighbors,
		ranker:       sumRanker{},
		rankBuf:      make([]float64, l),
	}
	for i, kw := range keywords {
		nodes, err := KeywordNodes(g, ix, kw)
		if err != nil {
			return nil, err
		}
		e.keywordNodes[i] = nodes
		e.keywordTerms[i] = fulltext.Tokenize(kw)[0] // single term, validated by KeywordNodes
	}
	return e, nil
}

// KeywordNodes resolves one query keyword to its node set V_i, via the
// inverted index when available or a graph scan otherwise. The keyword
// must tokenize to exactly one term.
func KeywordNodes(g *graph.Graph, ix *fulltext.Index, keyword string) ([]graph.NodeID, error) {
	terms := fulltext.Tokenize(keyword)
	if len(terms) != 1 {
		return nil, fmt.Errorf("core: keyword %q does not tokenize to a single term", keyword)
	}
	term := terms[0]
	if ix != nil {
		return ix.Nodes(term), nil
	}
	id, ok := g.Dict().ID(term)
	if !ok {
		return nil, nil
	}
	var out []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if g.HasTerm(graph.NodeID(v), id) {
			out = append(out, graph.NodeID(v))
		}
	}
	return out, nil
}

// Graph returns the graph the engine queries.
func (e *Engine) Graph() *graph.Graph { return e.g }

// L reports the number of query keywords.
func (e *Engine) L() int { return e.l }

// Rmax reports the query radius.
func (e *Engine) Rmax() float64 { return e.rmax }

// KeywordNodes returns V_i for keyword position i. The slice must not
// be modified.
func (e *Engine) KeywordNodes(i int) []graph.NodeID { return e.keywordNodes[i] }

// HasAllKeywords reports whether every keyword occurs somewhere in the
// graph; if not, no community exists.
func (e *Engine) HasAllKeywords() bool {
	for _, vs := range e.keywordNodes {
		if len(vs) == 0 {
			return false
		}
	}
	return true
}

// NeighborRuns reports how many bounded Dijkstra runs the engine has
// executed, a machine-independent cost measure used in delay tests.
func (e *Engine) NeighborRuns() int { return int(e.neighborRuns.Load()) }

// Parallelism reports the engine's configured worker count; <= 1 means
// strictly sequential.
func (e *Engine) Parallelism() int { return e.par }

// Close returns the engine's pooled state — workspaces, slot and
// materialization results, the aggregate table — for the next query.
// The engine must not be used afterwards. Close is idempotent and safe
// on an engine with no pool.
func (e *Engine) Close() {
	if e.ws == nil {
		return
	}
	p := e.pool
	p.Put(e.ws) // nil-pool Put just detaches
	e.ws = nil
	if e.gc != nil {
		e.spare = append(e.spare, e.gc)
	}
	for _, sc := range e.spare {
		sc.release(p)
	}
	if p != nil {
		e.clearSlots() // every slot to free, the table back to zeros
		for _, r := range e.full {
			p.PutResult(r)
		}
		for _, r := range e.free {
			p.PutResult(r)
		}
		p.PutTally(e.agg)
	}
	e.gc, e.spare, e.full, e.free, e.agg = nil, nil, nil, nil, nil
}

// Abandon is Close for a query that panicked: nothing goes back to the
// pool, since the panic may have left a result or the aggregate table
// half-written.
func (e *Engine) Abandon() {
	e.pool = nil
	e.Close()
}

// PrecomputeNeighborSets eagerly computes every cached full-set run
// Neighbor(V_i), fanning the per-keyword bounded reverse Dijkstras
// across min(par, l) worker goroutines. The enumerators' later
// setSlotFull calls then find the cached results, so enumeration
// semantics — order, budgets, trace totals — are byte-identical to the
// sequential engine; only the wall-clock of engine init changes.
//
// It is a no-op when parallelism is off, the slot cache is disabled
// (the ablation path must recompute), or some keyword is absent (the
// query is already known empty).
func (e *Engine) PrecomputeNeighborSets() {
	if e.par <= 1 || e.noSlotCache || !e.HasAllKeywords() {
		return
	}
	var idx []int
	for i := 0; i < e.l; i++ {
		if e.full[i] == nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return
	}
	workers := min(e.par, len(idx))
	if workers == 1 {
		// A single worker gains nothing over the lazy path; let
		// setSlotFull compute on demand with the engine's own workspace.
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			ws := e.pool.Get(e.g)
			ws.SetBudget(e.budget)
			ws.SetTrace(e.tr)
			for {
				t := int(next.Add(1)) - 1
				if t >= len(idx) {
					e.pool.Put(ws) // not on a panic: Abandon's rule
					return
				}
				i := idx[t]
				// Distinct i per task: no two workers share a slot.
				e.full[i] = e.fullSetResult(i, ws)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		// Preserve the public contract that query panics surface (and are
		// recovered) on the calling goroutine.
		panic(panicked)
	}
}

// FullSets returns every full keyword-set run Neighbor(V_i), computed
// (or loaded from the neighbor source) as the enumerators would and
// fanned across the workers as PrecomputeNeighborSets does, or nil when
// some keyword is absent. The results stay the engine's: they are valid
// until Close. A tripped budget leaves them partial, as it leaves a
// slot's run; callers check the budget.
func (e *Engine) FullSets() []*sssp.Result {
	if !e.HasAllKeywords() {
		return nil
	}
	e.PrecomputeNeighborSets()
	for i, r := range e.full {
		if r == nil {
			e.full[i] = e.fullSetResult(i, e.ws)
		}
	}
	return e.full
}

// slotDesc describes a slot's current contents so identical
// re-installs are skipped (the pins and full-set restores of the
// enumeration loops repeat constantly).
type slotDesc struct {
	kind slotKind
	node graph.NodeID
}

type slotKind uint8

const (
	slotEmpty  slotKind = iota
	slotFull            // Neighbor(V_i)
	slotSingle          // Neighbor({node})
	slotSet             // Neighbor(arbitrary subset)
)

// buffer returns a reusable result, recycling freed ones.
func (e *Engine) buffer() *sssp.Result {
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free = e.free[:n-1]
		return r
	}
	return e.pool.GetResult(e.g.NumNodes())
}

// install replaces slot i's contents with res, maintaining the per-node
// aggregates incrementally, as the paper prescribes so that BestCore
// probes each candidate in O(1). The previous buffer is recycled unless
// it is the slot's cached full-set result.
func (e *Engine) install(i int, res *sssp.Result, desc slotDesc) {
	old := e.nbr[i]
	if old == res {
		e.slotState[i] = desc
		return
	}
	if old != nil {
		e.agg.Remove(old)
		if old != e.full[i] {
			e.free = append(e.free, old)
		}
	}
	e.agg.Add(res)
	e.nbr[i] = res
	e.slotState[i] = desc
}

// runSlot installs in slot i a bounded reverse Dijkstra (Algorithm 2)
// from e.seeds, all at distance zero.
func (e *Engine) runSlot(i int, desc slotDesc) {
	res := e.buffer()
	e.budget.ChargeNeighborRun() // a tripped budget empties the run below
	e.ws.Run(sssp.Reverse, e.seeds, e.rmax, res)
	e.neighborRuns.Add(1)
	e.tr.Add(obs.NeighborRuns, 1)
	e.install(i, res, desc)
}

// setSlot recomputes neighborSet slot i from an arbitrary seed set.
func (e *Engine) setSlot(i int, seeds []graph.NodeID) {
	e.seeds = e.seeds[:0]
	for _, v := range seeds {
		e.seeds = append(e.seeds, sssp.Seed{Node: v})
	}
	e.runSlot(i, slotDesc{kind: slotSet})
}

// setSlotExcept recomputes slot i from V_i − excl, excl sorted. V_i is
// in ascending node order (the index's postings and the graph scan
// both list nodes that way), so the merge keeps it: seed order can
// decide Src at equal distance.
func (e *Engine) setSlotExcept(i int, excl []graph.NodeID) {
	e.seeds = e.seeds[:0]
	j := 0
	for _, v := range e.keywordNodes[i] {
		for j < len(excl) && excl[j] < v {
			j++
		}
		if j == len(excl) || excl[j] != v {
			e.seeds = append(e.seeds, sssp.Seed{Node: v})
		}
	}
	e.runSlot(i, slotDesc{kind: slotSet})
}

// setSlotSingle pins slot i to one keyword node; a no-op when the slot
// is already pinned there.
func (e *Engine) setSlotSingle(i int, v graph.NodeID) {
	if s := e.slotState[i]; !e.noSlotCache && s.kind == slotSingle && s.node == v {
		return
	}
	e.seeds = append(e.seeds[:0], sssp.Seed{Node: v})
	e.runSlot(i, slotDesc{kind: slotSingle, node: v})
}

// fullSetResult computes (or loads from the neighbor source) one full
// keyword-set run Neighbor(V_i) using the given workspace. The
// artifact path is charged exactly like a live run — one neighbor-run
// budget charge, one neighbor_runs trace count — so governance and
// machine-independent cost measures are unaffected by where the set
// came from. A tripped budget yields an empty result on both paths.
func (e *Engine) fullSetResult(i int, ws *sssp.Workspace) *sssp.Result {
	res := e.pool.GetResult(e.g.NumNodes())
	if e.nsrc != nil && e.nsrc.FullSet(e.keywordTerms[i], e.rmax, res) {
		if e.budget.ChargeNeighborRun() != nil {
			res.Reset() // tripped budget: a live run would settle nothing
		}
		e.neighborRuns.Add(1)
		e.tr.Add(obs.NeighborRuns, 1)
		return res
	}
	e.budget.ChargeNeighborRun() // a tripped budget empties the run
	ws.RunFromNodes(sssp.Reverse, e.keywordNodes[i], e.rmax, res)
	e.neighborRuns.Add(1)
	e.tr.Add(obs.NeighborRuns, 1)
	return res
}

// setSlotFull installs Neighbor(V_i). The run is computed once per
// query and cached: the enumerators restore full sets constantly
// (Algorithm 1 line 20, Algorithm 5 line 31) and V_i never changes.
func (e *Engine) setSlotFull(i int) {
	if e.noSlotCache {
		e.setSlot(i, e.keywordNodes[i])
		return
	}
	if e.slotState[i].kind == slotFull {
		return
	}
	if e.full[i] == nil {
		e.full[i] = e.fullSetResult(i, e.ws)
	}
	e.install(i, e.full[i], slotDesc{kind: slotFull})
}

// clearSlots empties every slot and the aggregates, returning the
// engine to its initial state. Enumerators call it on (re)start.
func (e *Engine) clearSlots() {
	for i := range e.nbr {
		old := e.nbr[i]
		if old == nil {
			continue
		}
		e.agg.Remove(old)
		if old != e.full[i] {
			e.free = append(e.free, old)
		}
		e.nbr[i] = nil
		e.slotState[i] = slotDesc{}
	}
}

// bestCore is Algorithm 3: return the minimum-cost core assembled from
// the per-slot nearest keyword nodes, or ok == false when the current
// slots admit no center. A center is settled in every slot, so the scan
// walks the smallest slot and probes the aggregate table: it costs what
// that slot settled, not |V|. Under the default sum cost the table
// answers each candidate in O(1); other rankers probe the l slots.
//
// The pick is the one an ascending-id scan of every node makes: the
// lowest-id center, unless a later one costs strictly less. That is the
// lexicographic minimum of (cost, id) over the centers whose cost is
// not NaN — unless the lowest-id center's cost is NaN, which nothing
// compares below, so it stays.
func (e *Engine) bestCore() (Core, float64, bool) {
	e.tr.Add(obs.BestcoreScans, 1)
	var scan []graph.NodeID
	for i, r := range e.nbr {
		if r == nil || r.Len() == 0 {
			return nil, 0, false
		}
		if i == 0 || r.Len() < len(scan) {
			scan = r.Visited()
		}
	}
	sumCost := e.ranker == Ranker(sumRanker{})
	cnt, sum := e.agg.Count, e.agg.Sum
	bestU, firstU := graph.NodeID(-1), graph.NodeID(-1)
	bestCost, firstCost := 0.0, 0.0
	want := int16(e.l)
	// The scan polls the budget once per block so the hot inner loop
	// stays branch-free of governance; a tripped budget aborts the scan
	// (callers distinguish that from "no center" via Budget().Err()).
	const scanStride = 4 * govern.Stride
	for base := 0; base < len(scan); base += scanStride {
		if e.budget != nil && e.budget.Poll() != nil {
			return nil, 0, false
		}
		for _, u := range scan[base:min(base+scanStride, len(scan))] {
			if cnt[u] != want {
				continue
			}
			var cost float64
			if sumCost {
				cost = sum[u]
			} else {
				cost = e.candidateCost(u)
			}
			if firstU < 0 || u < firstU {
				firstU, firstCost = u, cost
			}
			if math.IsNaN(cost) {
				continue
			}
			if bestU < 0 || cost < bestCost || cost == bestCost && u < bestU {
				bestU, bestCost = u, cost
			}
		}
	}
	if firstU < 0 {
		return nil, 0, false
	}
	if math.IsNaN(firstCost) {
		bestU = firstU
	}
	c := make(Core, e.l)
	for i := 0; i < e.l; i++ {
		c[i] = e.nbr[i].Src(bestU)
	}
	return c, e.candidateCost(bestU), true
}

// candidateCost aggregates a center's slot distances under the ranker.
func (e *Engine) candidateCost(u graph.NodeID) float64 {
	for i := 0; i < e.l; i++ {
		e.rankBuf[i], _ = e.nbr[i].Dist(u)
	}
	return e.ranker.Cost(e.rankBuf)
}

// Bytes estimates the engine's logical memory footprint: the slot
// results, aggregates and workspace — the paper's O(l·n + m) working
// state (the graph itself is shared and accounted separately).
func (e *Engine) Bytes() int64 {
	b := e.ws.Bytes() + e.agg.Bytes()
	for i, r := range e.nbr {
		if r != nil && r != e.full[i] {
			b += r.Bytes()
		}
	}
	for _, r := range e.full {
		if r != nil {
			b += r.Bytes()
		}
	}
	for _, r := range e.free {
		b += r.Bytes()
	}
	for _, ks := range e.keywordNodes {
		b += int64(len(ks)) * 4
	}
	if e.gc != nil {
		b += e.gc.bytes()
	}
	return b
}
