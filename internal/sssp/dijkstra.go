// Package sssp implements radius-bounded multi-source Dijkstra over a
// database graph, in both edge directions.
//
// The paper's Neighbor() (Algorithm 2) adds a virtual sink t with
// zero-weight edges from every keyword node and runs Dijkstra over the
// reversed graph; GetCommunity() (Algorithm 4) does the same with a
// virtual source s over the forward graph. Both constructions are
// exactly multi-source Dijkstra seeded at distance zero, which is how
// this package implements them — no virtual nodes are materialized.
//
// A Workspace carries the scratch arrays (tentative distances with
// epoch stamping and the binary heap) so that the O(l) Dijkstra runs
// per enumeration step allocate nothing.
package sssp

import (
	"math"
	"slices"

	"commdb/internal/govern"
	"commdb/internal/graph"
	"commdb/internal/heap"
	"commdb/internal/obs"
)

// Direction selects which adjacency a run follows.
type Direction int

const (
	// Forward computes dist(seed, v): shortest paths leaving the seeds.
	Forward Direction = iota
	// Reverse computes dist(v, seed): shortest paths into the seeds,
	// i.e. Dijkstra over the reversed graph.
	Reverse
)

// Seed is a starting point of a run with an initial distance offset
// (zero for the paper's virtual source/sink constructions).
type Seed struct {
	Node graph.NodeID
	Dist float64
}

// Result holds the settled nodes of one bounded Dijkstra run: for every
// node within the radius, its shortest distance and the seed that
// realizes it (the paper's src(N_i, u) / min(N_i, u) bookkeeping).
//
// A Result is sized to a graph and can be reused across runs; lookup is
// O(1) via a dense position index, while iteration touches only the
// settled nodes.
type Result struct {
	pos     []int32 // node -> index into visited, or -1
	visited []graph.NodeID
	dist    []float64
	src     []graph.NodeID
	via     []graph.NodeID // next hop toward the seed (or previous hop from it)
}

// NewResult returns an empty Result for graphs of n nodes.
func NewResult(n int) *Result {
	r := &Result{pos: make([]int32, n)}
	for i := range r.pos {
		r.pos[i] = -1
	}
	return r
}

// Reset clears the result in O(settled nodes).
func (r *Result) Reset() {
	for _, v := range r.visited {
		r.pos[v] = -1
	}
	r.visited = r.visited[:0]
	r.dist = r.dist[:0]
	r.src = r.src[:0]
	r.via = r.via[:0]
}

// Contains reports whether v was settled within the radius.
func (r *Result) Contains(v graph.NodeID) bool { return r.pos[v] >= 0 }

// Dist returns the shortest distance of v and whether v was settled.
func (r *Result) Dist(v graph.NodeID) (float64, bool) {
	p := r.pos[v]
	if p < 0 {
		return math.Inf(1), false
	}
	return r.dist[p], true
}

// Src returns the seed node realizing v's shortest distance. It must
// only be called when Contains(v) is true.
func (r *Result) Src(v graph.NodeID) graph.NodeID { return r.src[r.pos[v]] }

// Via returns v's neighbour on its shortest path: the next hop toward
// the seed on a Reverse run, or the previous hop from the seed on a
// Forward run. Seeds return themselves. It must only be called when
// Contains(v) is true.
func (r *Result) Via(v graph.NodeID) graph.NodeID { return r.via[r.pos[v]] }

// PathTo reconstructs v's shortest path by following Via hops until the
// seed: on a Reverse run the returned nodes run v → … → seed in original
// edge orientation; on a Forward run they run v → … → seed backwards
// along the path (i.e. reversed). It must only be called when
// Contains(v) is true.
func (r *Result) PathTo(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for {
		out = append(out, v)
		next := r.Via(v)
		if next == v {
			return out
		}
		v = next
	}
}

// Visited returns the settled nodes in non-decreasing distance order.
// The slice aliases the result's storage.
func (r *Result) Visited() []graph.NodeID { return r.visited }

// Len reports the number of settled nodes.
func (r *Result) Len() int { return len(r.visited) }

// Bytes estimates the logical memory footprint of the result.
func (r *Result) Bytes() int64 {
	return int64(len(r.pos))*4 + int64(cap(r.visited))*4 + int64(cap(r.dist))*8 +
		int64(cap(r.src))*4 + int64(cap(r.via))*4
}

// Load replaces the result's contents with an externally produced
// settle sequence — the replay path for persisted neighbor-set
// artifacts (internal/kwcache). The slices are copied, must be equal
// length, and must list nodes in the non-decreasing distance order a
// live run would settle them in; every node id must be within the
// result's graph size. Violating those invariants corrupts lookups, so
// artifact loaders validate before calling.
func (r *Result) Load(visited []graph.NodeID, dist []float64, src, via []graph.NodeID) {
	r.Reset()
	for i, v := range visited {
		r.add(v, dist[i], src[i], via[i])
	}
}

func (r *Result) add(v graph.NodeID, d float64, src, via graph.NodeID) {
	r.pos[v] = int32(len(r.visited))
	r.visited = append(r.visited, v)
	r.dist = append(r.dist, d)
	r.src = append(r.src, src)
	r.via = append(r.via, via)
}

// Workspace holds the per-graph scratch state shared by successive
// Dijkstra runs. It is not safe for concurrent use, but a Pool of
// workspaces lets any number of concurrent runs each own one.
type Workspace struct {
	g     *graph.Graph
	tent  []float64
	tsrc  []graph.NodeID
	tvia  []graph.NodeID
	stamp []uint32
	epoch uint32
	pq    heap.Binary
	// seeds is RunFromNodes' seed buffer.
	seeds []Seed

	// gen is the workspace's version stamp: bumped every time a Pool
	// hands the workspace out, so tests (and debugging) can tell
	// distinct checkouts of one recycled workspace apart. Correctness
	// across reuses rests on epoch stamping: every Run bumps epoch, so
	// tentative state from any earlier run — same query or not — can
	// never satisfy a current-epoch stamp check.
	gen uint64

	// budget, when non-nil, governs every run: work is charged in
	// batches of ~govern.Stride relaxations and a run stops early
	// (leaving a truncated Result) once the budget trips. tick carries
	// uncharged work between batches and across runs.
	budget *govern.Budget
	tick   int64

	// tr, when non-nil, receives one obs.DijkstraRun per Run: counters
	// are accumulated in locals inside the hot loop and flushed once at
	// the end, so tracing adds no allocations and no per-edge trace
	// touches.
	tr *obs.Trace
}

// NewWorkspace returns a Workspace for g.
func NewWorkspace(g *graph.Graph) *Workspace {
	w := &Workspace{}
	w.bind(g)
	return w
}

// bind points the workspace at g, sizing the scratch arrays to the
// graph. Rebinding a used workspace to another graph is safe without
// wiping: retained stamps are all ≤ the current epoch, and Run bumps
// the epoch before stamping, so stale entries can never pass a
// current-epoch check. When the arrays must grow they are reallocated
// (zero stamps, equally unreachable).
func (w *Workspace) bind(g *graph.Graph) {
	w.g = g
	n := g.NumNodes()
	if cap(w.tent) < n {
		w.tent = make([]float64, n)
		w.tsrc = make([]graph.NodeID, n)
		w.tvia = make([]graph.NodeID, n)
		w.stamp = make([]uint32, n)
		return
	}
	w.tent = w.tent[:n]
	w.tsrc = w.tsrc[:n]
	w.tvia = w.tvia[:n]
	w.stamp = w.stamp[:n]
}

// Graph returns the graph the workspace was created for.
func (w *Workspace) Graph() *graph.Graph { return w.g }

// Generation reports how many times a Pool has handed this workspace
// out; 0 for a workspace that never lived in a pool.
func (w *Workspace) Generation() uint64 { return w.gen }

// SetBudget installs a governance budget consulted by every subsequent
// run; nil removes governance. When the budget trips, the current run
// stops and leaves a truncated Result — callers must treat any Result
// produced after Budget.Err() reports non-nil as partial.
func (w *Workspace) SetBudget(b *govern.Budget) { w.budget = b }

// SetTrace installs a query trace that every subsequent run reports
// its work counters to; nil (the default) disables tracing.
func (w *Workspace) SetTrace(t *obs.Trace) { w.tr = t }

// chargeTick batches n work units into the workspace's local counter
// and charges the budget once per govern.Stride, reporting whether the
// run must stop.
func (w *Workspace) chargeTick(n int64) bool {
	w.tick += n
	if w.tick < govern.Stride {
		return false
	}
	batch := w.tick
	w.tick = 0
	return w.budget.ChargeRelaxations(batch) != nil
}

// Bytes estimates the logical memory footprint of the workspace.
func (w *Workspace) Bytes() int64 {
	return int64(len(w.tent))*8 + int64(len(w.tsrc))*8 + int64(len(w.stamp))*4
}

// Run executes one bounded Dijkstra: shortest paths from the seed set,
// following out-edges (Forward) or in-edges (Reverse), settling every
// node whose distance is at most rmax. The result is written into res,
// which is reset first.
//
// When the graph carries node weights (the paper's footnote-1
// extension), a path's cost additionally counts the node weight of
// every node on it except the path's source: a Forward run adds the
// entered node's weight on each relaxation, a Reverse run adds the
// weight of the node being left in the original orientation. The two
// conventions compose so that dist(s,u) + dist(u,t) counts u exactly
// once, which is what GetCommunity's membership test needs.
//
// When a budget is installed (SetBudget) the run charges its work in
// amortized batches and stops early once the budget trips; res then
// holds only the nodes settled so far, and the stop reason is readable
// from the budget. A run started after the budget tripped settles
// nothing.
func (w *Workspace) Run(dir Direction, seeds []Seed, rmax float64, res *Result) {
	w.run(dir, seeds, rmax, res, nil, nil)
}

// RunWithin is Run restricted to an induced subgraph: only nodes v with
// within[v] true are seeded, relaxed into, or settled. Edges leaving
// the region are ignored — callers that need paths through the outside
// (e.g. the partial index rebuild's boundary-conditioned repair) fold
// them into seed distances instead.
func (w *Workspace) RunWithin(dir Direction, seeds []Seed, rmax float64, res *Result, within []bool) {
	w.run(dir, seeds, rmax, res, within, nil)
}

// RunToward is Run restricted to the nodes that can still reach the
// other end of a two-sided query in budget: tail holds the runs in the
// opposite direction from the targets (Algorithm 4's virtual sink t,
// Algorithm 6's keyword carriers, a plain projection's keyword sets) to
// radius Widen(rmax, n), and a relaxation into v with tentative
// distance nd is dropped unless tail settled v with nd + dist_tail(v) ≤
// Widen(rmax, n). Seeds are not pruned.
//
// Every node u with dist(u) + dist_tail(u) ≤ rmax is settled with
// exactly the distance, source and via hop Run would give it: each node
// w on u's shortest path has dist(w) + dist_tail(w) ≤ dist(u) +
// dist_tail(u) up to rounding, which Widen absorbs (DESIGN.md,
// Algorithm 4). Nodes outside that set may be missing or settled
// farther than Run would put them, so callers read the result only
// through the two-sided test.
func (w *Workspace) RunToward(dir Direction, seeds []Seed, rmax float64, res *Result, tail *Tail) {
	w.run(dir, seeds, rmax, res, nil, tail)
}

// Tail is the far side of a two-sided run (RunToward): the nodes that
// one or more runs in the other direction settled, each with
// dist_tail(v), the least distance any of them settled it at. l runs
// from l seed sets thus stand for one run from their union, since a
// multi-source distance is the least over the sources. The members are
// an n-bit set and their distances a dense array by rank, so the test a
// relaxation makes stays in cache (128 KB per million nodes) where a
// Result's n-sized position index would be a cache miss per lookup.
//
// The zero Tail is empty; Reset fills it and reuses its storage.
type Tail struct {
	set  graph.NodeSet
	dist []float64 // by rank in set
}

// Reset makes t the tail of runs, Results for a graph of n nodes, in
// O(n/64 + the nodes they settled).
func (t *Tail) Reset(n int, runs ...*Result) {
	t.set.Reset(n)
	for _, r := range runs {
		for _, v := range r.visited {
			t.set.Add(v)
		}
	}
	m := t.set.Seal()
	t.dist = slices.Grow(t.dist[:0], m)[:m]
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
	}
	for _, r := range runs {
		for i, v := range r.visited {
			k, _ := t.set.Rank(v)
			t.dist[k] = min(t.dist[k], r.dist[i])
		}
	}
}

// Dist returns dist_tail(v) and whether some run settled v.
func (t *Tail) Dist(v graph.NodeID) (float64, bool) {
	k, ok := t.set.Rank(v)
	if !ok {
		return 0, false
	}
	return t.dist[k], true
}

// Rank returns v's rank among the members (their ascending order) and
// whether some run settled v.
func (t *Tail) Rank(v graph.NodeID) (graph.NodeID, bool) { return t.set.Rank(v) }

// AppendMembers appends the members to dst in ascending order.
func (t *Tail) AppendMembers(dst []graph.NodeID) []graph.NodeID { return t.set.AppendMembers(dst) }

// Compact makes dst the tail t is on the subgraph of t's own members,
// whose node k is the member of rank k: every node a member, at t's
// distance.
func (t *Tail) Compact(dst *Tail) {
	m := len(t.dist)
	dst.set.Reset(m)
	for k := range m {
		dst.set.Add(graph.NodeID(k))
	}
	dst.set.Seal()
	dst.dist = append(dst.dist[:0], t.dist...)
}

// Widen returns rmax enlarged by the floating-point slack that
// RunToward's pruning needs on a graph of n nodes: rmax·(1 + 8·n·2⁻⁵³).
// A computed distance is a left-to-right sum with at most two rounded
// additions per hop (edge weight, node weight) over at most n−1 hops.
// Bounding the two-sided sum at a node on a kept node's shortest path
// by the kept node's own sum costs a relative error of about 4·n·2⁻⁵³
// (DESIGN.md, Algorithm 4); twice that also covers the second-order
// terms and the rounding of the product. A finite rmax stays finite:
// past math.MaxFloat64 the result is math.MaxFloat64, which every
// finite sum is within.
func Widen(rmax float64, n int) float64 {
	w := rmax * (1 + 8*float64(max(n, 1))*0x1p-53)
	if math.IsInf(w, 1) && !math.IsInf(rmax, 1) {
		return math.MaxFloat64
	}
	return w
}

func (w *Workspace) run(dir Direction, seeds []Seed, rmax float64, res *Result, within []bool, tail *Tail) {
	res.Reset()
	if w.budget != nil && w.budget.Err() != nil {
		return // tripped budget: every further run is an empty no-op
	}
	w.epoch++
	if w.epoch == 0 { // wrapped: wipe stamps once
		// The wipe covers the full capacity, not just the current graph's
		// prefix: a later bind to a larger graph within capacity would
		// otherwise re-expose stale stamps from before the wrap.
		full := w.stamp[:cap(w.stamp)]
		for i := range full {
			full[i] = 0
		}
		w.epoch = 1
	}
	w.pq.Reset()
	bound := math.Inf(1) // the two-sided budget of RunToward
	if tail != nil {
		bound = Widen(rmax, w.g.NumNodes())
	}

	// Trace counters live in locals so the hot loop costs a register
	// increment, and are flushed once per run (obsFlush no-ops on a nil
	// trace; the disabled path is allocation-free by test).
	var tc obs.DijkstraRun

	for _, s := range seeds {
		if s.Dist > rmax {
			continue
		}
		if within != nil && !within[s.Node] {
			continue
		}
		if w.stamp[s.Node] == w.epoch && w.tent[s.Node] <= s.Dist {
			continue
		}
		w.stamp[s.Node] = w.epoch
		w.tent[s.Node] = s.Dist
		w.tsrc[s.Node] = s.Node
		w.tvia[s.Node] = s.Node
		w.pq.Push(s.Dist, s.Node)
		tc.HeapPushes++
	}

	for w.pq.Len() > 0 {
		it := w.pq.Pop()
		tc.HeapPops++
		v := it.Node
		if res.Contains(v) {
			continue // stale entry
		}
		if w.stamp[v] != w.epoch || it.Dist > w.tent[v] {
			continue // superseded tentative distance
		}
		if it.Dist > rmax {
			tc.RadiusCutoffs++
			break
		}
		res.add(v, it.Dist, w.tsrc[v], w.tvia[v])

		var adj []graph.Edge
		if dir == Forward {
			adj = w.g.OutEdges(v)
		} else {
			adj = w.g.InEdges(v)
		}
		tc.Relaxations += int64(len(adj))
		if w.budget != nil && w.chargeTick(int64(len(adj))+1) {
			w.obsFlush(res, tc)
			return // budget tripped: res holds the partial run
		}
		nw := w.g.NodeWeights()
		for _, e := range adj {
			nd := it.Dist + e.Weight
			if nw != nil {
				if dir == Forward {
					nd += nw[e.To] // entering e.To
				} else {
					nd += nw[v] // leaving v in the original orientation
				}
			}
			if nd > rmax {
				tc.RadiusCutoffs++
				continue
			}
			if within != nil && !within[e.To] {
				continue
			}
			if tail != nil {
				if dt, ok := tail.Dist(e.To); !ok || nd+dt > bound {
					continue
				}
			}
			if res.Contains(e.To) {
				continue
			}
			if w.stamp[e.To] == w.epoch && w.tent[e.To] <= nd {
				continue
			}
			w.stamp[e.To] = w.epoch
			w.tent[e.To] = nd
			w.tsrc[e.To] = w.tsrc[v]
			w.tvia[e.To] = v
			w.pq.Push(nd, e.To)
			tc.HeapPushes++
		}
	}
	// Flush the remainder so many small runs (one per index term)
	// account as accurately as one large run.
	if w.budget != nil && w.tick > 0 {
		batch := w.tick
		w.tick = 0
		w.budget.ChargeRelaxations(batch)
	}
	w.obsFlush(res, tc)
}

// obsFlush reports one finished (or truncated) run to the trace.
func (w *Workspace) obsFlush(res *Result, tc obs.DijkstraRun) {
	if w.tr == nil {
		return
	}
	tc.Visits = int64(res.Len())
	w.tr.AddDijkstra(tc)
}

// RunFromNodes is Run with all seeds at distance zero. The seeds are
// built in a buffer the workspace owns, so a run allocates nothing.
func (w *Workspace) RunFromNodes(dir Direction, nodes []graph.NodeID, rmax float64, res *Result) {
	w.seeds = w.seeds[:0]
	for _, v := range nodes {
		w.seeds = append(w.seeds, Seed{Node: v})
	}
	w.Run(dir, w.seeds, rmax, res)
}
