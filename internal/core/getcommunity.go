package core

import (
	"sort"

	"commdb/internal/graph"
	"commdb/internal/obs"
	"commdb/internal/sssp"
)

// gcScratch holds the buffers of one Algorithm 4 materialization: a
// shortest-path workspace plus the pass results. The engine lazily owns
// one for the sequential path; each materialization-pipeline worker
// owns a private one, so concurrent GetCommunity calls never share
// mutable state — everything they read off the Engine (graph, radius,
// cost function, budget, trace) is immutable after setup or internally
// synchronized.
type gcScratch struct {
	ws *sssp.Workspace
	// ownWS marks a workspace checked out of the engine's pool for this
	// scratch alone; release returns it. The engine's own scratch
	// borrows e.ws instead (Engine.Close returns that one).
	ownWS bool
	fwd   *sssp.Result
	rev   *sssp.Result
	knode []*sssp.Result
	// tail is rev as the forward pass's RunToward tail; seeds is that
	// pass's seed buffer.
	tail  sssp.Tail
	seeds []sssp.Seed
}

// newGCScratch sizes a scratch for the engine's graph and keyword
// count around the given workspace, from the engine's pool.
func (e *Engine) newGCScratch(ws *sssp.Workspace, owned bool) *gcScratch {
	n := e.g.NumNodes()
	sc := &gcScratch{
		ws:    ws,
		ownWS: owned,
		fwd:   e.pool.GetResult(n),
		rev:   e.pool.GetResult(n),
		knode: make([]*sssp.Result, e.l),
	}
	for i := range sc.knode {
		sc.knode[i] = e.pool.GetResult(n)
	}
	return sc
}

// release returns the results, and an owned workspace, to the pool.
func (sc *gcScratch) release(p *sssp.Pool) {
	if sc.ownWS {
		p.Put(sc.ws)
	}
	p.PutResult(sc.fwd)
	p.PutResult(sc.rev)
	for _, r := range sc.knode {
		p.PutResult(r)
	}
}

// bytes reports the scratch's logical footprint, for Engine.Bytes.
func (sc *gcScratch) bytes() int64 {
	b := sc.fwd.Bytes() + sc.rev.Bytes()
	for _, r := range sc.knode {
		b += r.Bytes()
	}
	return b
}

// GetCommunity is Algorithm 4: materialize the community uniquely
// determined by core c.
//
// It runs one bounded reverse Dijkstra per distinct core node to find
// the centers (every node within Rmax of all core nodes), then the
// virtual-sink reverse pass from the core nodes and the virtual-source
// forward pass from the centers; a node belongs to the community iff
// dist(s,u) + dist(u,t) <= Rmax. The forward pass runs toward the
// reverse one (sssp.RunToward), so it expands only nodes that can still
// reach a core node in budget. Total cost O(l·(n·log n + m)).
func (e *Engine) GetCommunity(c Core) *Community {
	if e.gc == nil {
		e.gc = e.newGCScratch(e.ws, false)
	}
	return e.getCommunity(c, e.gc)
}

// getCommunity is GetCommunity against an explicit scratch, the form
// the materialization pipeline's workers call concurrently.
func (e *Engine) getCommunity(c Core, sc *gcScratch) *Community {
	e.tr.Add(obs.GetcommunityCalls, 1)

	// Distinct knodes (a node may serve several keyword positions).
	knodes := distinctNodes(c)

	// Per-knode reverse passes: after these, sc.knode[j].Dist(v) is
	// dist(v, knodes[j]) when within Rmax.
	for j, kn := range knodes {
		e.budget.ChargeNeighborRun()
		sc.ws.RunFromNodes(sssp.Reverse, []graph.NodeID{kn}, e.rmax, sc.knode[j])
		e.neighborRuns.Add(1)
		e.tr.Add(obs.NeighborRuns, 1)
	}

	// Centers: settled in every per-knode pass. Scan the smallest pass
	// and probe the others.
	smallest := 0
	for j := 1; j < len(knodes); j++ {
		if sc.knode[j].Len() < sc.knode[smallest].Len() {
			smallest = j
		}
	}
	knodeIdx := make(map[graph.NodeID]int, len(knodes))
	for j, kn := range knodes {
		knodeIdx[kn] = j
	}
	var centers []graph.NodeID
	cost := 0.0
	haveCost := false
	dists := make([]float64, len(c))
	for _, v := range sc.knode[smallest].Visited() {
		all := true
		for j := range knodes {
			if j == smallest {
				continue
			}
			if !sc.knode[j].Contains(v) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		centers = append(centers, v)
		// The cost aggregates every keyword position, so duplicate core
		// nodes contribute once per position.
		for i, ci := range c {
			dists[i], _ = sc.knode[knodeIdx[ci]].Dist(v)
		}
		total := e.CostOf(dists)
		if !haveCost || total < cost {
			cost = total
			haveCost = true
		}
	}
	sort.Slice(centers, func(i, j int) bool { return centers[i] < centers[j] })

	r := &Community{Core: c.Clone(), Knodes: knodes, Cnodes: centers, Cost: cost}
	if len(centers) == 0 {
		// No center reaches every knode within Rmax: the core admits no
		// community. Callers in the enumerators never hit this (BestCore
		// only returns centered cores), but direct API users may.
		r.Nodes = append([]graph.NodeID(nil), knodes...)
		return r
	}

	// Reverse pass from all knodes (virtual sink t), then the forward
	// pass from all centers (virtual source s) toward it. The reverse
	// pass runs to the widened radius RunToward prunes against; the keep
	// test below is unchanged, and a node beyond Rmax from every knode
	// fails it either way.
	e.budget.ChargeNeighborRun()
	sc.ws.RunFromNodes(sssp.Reverse, knodes, sssp.Widen(e.rmax, e.g.NumNodes()), sc.rev)
	sc.seeds = sc.seeds[:0]
	for _, v := range centers {
		sc.seeds = append(sc.seeds, sssp.Seed{Node: v})
	}
	e.budget.ChargeNeighborRun()
	sc.tail.Reset(e.g.NumNodes(), sc.rev)
	sc.ws.RunToward(sssp.Forward, sc.seeds, e.rmax, sc.fwd, &sc.tail)
	e.neighborRuns.Add(2)
	e.tr.Add(obs.NeighborRuns, 2)

	in := func(u graph.NodeID) bool {
		ds, ok := sc.fwd.Dist(u)
		if !ok {
			return false
		}
		dt, ok := sc.rev.Dist(u)
		return ok && ds+dt <= e.rmax
	}
	for _, u := range sc.fwd.Visited() {
		if in(u) {
			r.Nodes = append(r.Nodes, u)
		}
	}
	sort.Slice(r.Nodes, func(i, j int) bool { return r.Nodes[i] < r.Nodes[j] })

	// Classify pnodes: community nodes that are neither knodes nor
	// centers.
	isK := make(map[graph.NodeID]bool, len(knodes))
	for _, kn := range knodes {
		isK[kn] = true
	}
	isC := make(map[graph.NodeID]bool, len(centers))
	for _, cn := range centers {
		isC[cn] = true
	}
	for _, u := range r.Nodes {
		if !isK[u] && !isC[u] {
			r.Pnodes = append(r.Pnodes, u)
		}
	}

	// Induced edges over the community's nodes.
	for _, u := range r.Nodes {
		for _, edge := range e.g.OutEdges(u) {
			if in(edge.To) {
				r.Edges = append(r.Edges, graph.EdgePair{From: u, To: edge.To})
			}
		}
	}
	return r
}

func distinctNodes(c Core) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(c))
	for _, v := range c {
		dup := false
		for _, have := range out {
			if have == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
