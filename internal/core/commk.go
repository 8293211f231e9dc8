package core

import (
	"slices"

	"commdb/internal/graph"
	"commdb/internal/heap"
	"commdb/internal/obs"
)

// TopKEnumerator is Algorithm 5 (PDk): it emits communities in
// non-decreasing cost order with polynomial delay O(l·(n·log n + m))
// per result and O(l²·k + l·n + m) space after k results.
//
// Its can-list is a Fibonacci heap of subspaces keyed on their best
// core's cost. Emitting the minimum splits its subspace at every
// position from l down to its own (see subspace) and enheaps each
// child's best core.
//
// The enumerator has no fixed k: every Next call produces one more
// community, so a user can interactively enlarge k at run time without
// recomputation (Exp-3 of the paper). Stop calling Next when satisfied.
type TopKEnumerator struct {
	walk
	h        *heap.Fib[subspace]
	exclLive int // exclusions held by enheaped subspaces, for Bytes
}

// NewTopK returns a COMM-k enumerator for the engine's query. The
// engine must not be shared with another running enumerator.
func NewTopK(e *Engine) *TopKEnumerator {
	return &TopKEnumerator{walk: walk{e: e}, h: heap.NewFib[subspace]()}
}

// NextCore returns the core of the next best community in ranking
// order, or ok == false when the query is exhausted or its budget
// tripped (Err distinguishes the two).
func (it *TopKEnumerator) NextCore() (CoreCost, bool) {
	if !it.enter() {
		return CoreCost{}, false
	}
	if !it.started {
		c, cost, ok := it.first()
		if !ok {
			return CoreCost{}, false
		}
		// A tripped charge is caught after the split below.
		_ = it.push(subspace{core: c}, cost)
	}
	node := it.h.ExtractMin()
	if node == nil {
		it.done = true
		return CoreCost{}, false
	}
	g := node.Value
	it.exclLive -= len(g.excl)
	// Procedure Next(g) (Algorithm 5, lines 15-31): only the split at
	// g.pos inherits g's exclusions; a trip abandons the expansion.
	it.e.split(g.core, g.pos, func(i int) []graph.NodeID {
		if i == g.pos {
			return g.excl
		}
		return nil
	}, func(s subspace, cost float64, found bool) bool {
		if !found {
			return false
		}
		s.excl = slices.Clone(s.excl)
		return it.push(s, cost) != nil
	})
	// The extracted minimum was fully determined before the split ran,
	// so it is returned even when the split tripped the budget; the
	// enumeration freezes and Next drops it.
	if err := it.e.budget.Err(); err != nil {
		it.err = err
		it.done = true
	}
	return it.emit(g.core, node.Key)
}

// push enheaps a subspace and charges its tuple to the budget.
func (it *TopKEnumerator) push(s subspace, cost float64) error {
	it.h.Insert(cost, s)
	it.exclLive += len(s.excl)
	it.e.tr.Add(obs.CanTuples, 1)
	it.e.tr.SetMax(obs.CanListMax, int64(it.h.Len()))
	return it.e.budget.ChargeTuple(it.tupleBytes())
}

// tupleBytes is the logical size of one can-list tuple, charged against
// the budget's heap-bytes resource (the paper's O(l²·k) space term).
func (it *TopKEnumerator) tupleBytes() int64 {
	return int64(it.e.l)*4 + 48
}

// Next returns the next best community in ranking order, or ok == false
// when exhausted or the budget tripped (see Err). Calling Next again
// after k results simply continues to k+1 — the interactive
// enlargement the paper highlights.
func (it *TopKEnumerator) Next() (*Community, bool) { return it.materialize(it.NextCore()) }

// PendingCandidates reports how many candidate cores are currently
// enheaped, at most l per emitted result.
func (it *TopKEnumerator) PendingCandidates() int { return it.h.Len() }

// Bytes estimates the enumerator's logical working memory beyond the
// engine: its own state and heap header (64 bytes) plus the enheaped
// subspaces — each a tuple and a heap node — with their exclusion
// lists, the paper's O(l²·k) term. A subspace leaves with its
// extraction: its core is the caller's and nothing points back at it.
func (it *TopKEnumerator) Bytes() int64 {
	return 64 + int64(it.h.Len())*(it.tupleBytes()+56) + int64(it.exclLive)*4
}
