package sssp

import (
	"sync"

	"commdb/internal/graph"
)

// Pool recycles a query's graph-sized state across queries and across
// the worker goroutines of one query: Workspaces, Results and Tallies.
// Each is O(n) — a fresh Result alone fills an n-entry position index —
// so a query on a large graph that allocated them anew would pay for
// |V| before settling a single node. With the pool, a serving process
// reaches a steady state of ~max-concurrency copies of each.
//
// Workspaces are graph-agnostic: Get rebinds whatever workspace it
// finds to the requested graph, so one pool serves full-graph queries
// and the per-query projected subgraphs alike. Safety across reuses
// rests on epoch stamping (see Workspace.bind); each checkout
// additionally bumps the workspace's generation stamp so leakage bugs
// are attributable in tests. Results and Tallies are reused only at
// exactly the size asked for (a pooled one of another size is dropped),
// so projected queries, whose sizes differ from query to query,
// allocate as they would without the pool. They come back clean: a
// Result is Reset on the way in, in O(settled nodes), and a Tally must
// be returned all zeros.
//
// A nil *Pool is valid: Get allocates a fresh workspace and Put drops
// it, so un-pooled paths need no branches at the call sites.
type Pool struct {
	p       sync.Pool
	results sync.Pool
	tallies sync.Pool
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{p: sync.Pool{New: func() any { return &Workspace{} }}}
}

// Get returns a workspace bound to g, recycling a pooled one when
// available. The caller owns it until Put.
func (p *Pool) Get(g *graph.Graph) *Workspace {
	if p == nil {
		return NewWorkspace(g)
	}
	w := p.p.Get().(*Workspace)
	w.bind(g)
	w.gen++
	return w
}

// Put returns a workspace to the pool. The workspace's budget and
// trace are detached so a pooled workspace never pins a finished
// query's governance state or trace.
func (p *Pool) Put(w *Workspace) {
	if w == nil {
		return
	}
	w.budget = nil
	w.tr = nil
	w.tick = 0
	if p == nil {
		return
	}
	p.p.Put(w)
}

// GetResult returns an empty Result for graphs of n nodes, recycling a
// pooled one of exactly that size when there is one.
func (p *Pool) GetResult(n int) *Result {
	if p != nil {
		if r, _ := p.results.Get().(*Result); r != nil && len(r.pos) == n {
			return r
		}
	}
	return NewResult(n)
}

// PutResult resets r and pools it; the caller must hold no reference to
// it afterwards. A nil pool drops it.
func (p *Pool) PutResult(r *Result) {
	if p == nil || r == nil {
		return
	}
	r.Reset()
	p.results.Put(r)
}

// GetTally returns an all-zero Tally for graphs of n nodes, recycling a
// pooled one of exactly that size when there is one.
func (p *Pool) GetTally(n int) *Tally {
	if p != nil {
		if t, _ := p.tallies.Get().(*Tally); t != nil && len(t.Count) == n {
			return t
		}
	}
	return NewTally(n)
}

// PutTally pools t, which must be all zeros again: every Result added
// to it has been removed. A nil pool drops it.
func (p *Pool) PutTally(t *Tally) {
	if p == nil || t == nil {
		return
	}
	p.tallies.Put(t)
}
