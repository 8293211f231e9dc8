package core

import (
	"commdb/internal/graph"
	"commdb/internal/heap"
	"commdb/internal/obs"
)

// canTuple is the paper's 4-element can-list entry (C, cost, pos, prev):
// a candidate core, its cost, the keyword position at which its
// subspace split off, and the parent candidate whose expansion created
// it. Walking prev reconstructs the exclusion sets of the subspace.
type canTuple struct {
	core Core
	cost float64
	pos  int
	prev *canTuple
}

// TopKEnumerator is Algorithm 5 (PDk): it emits communities in
// non-decreasing cost order with polynomial delay O(l·(n·log n + m))
// per result and O(l²·k + l·n + m) space after k results.
//
// The enumerator has no fixed k: every Next call produces one more
// community, so a user can interactively enlarge k at run time without
// recomputation (Exp-3 of the paper). Stop calling Next when satisfied.
type TopKEnumerator struct {
	e       *Engine
	h       *heap.Fib[*canTuple]
	started bool
	done    bool
	emitted int
	tuples  int   // can-list length, for memory accounting
	err     error // stop reason when the engine's budget tripped
}

// NewTopK returns a COMM-k enumerator for the engine's query. The
// engine must not be shared with another running enumerator.
func NewTopK(e *Engine) *TopKEnumerator {
	return &TopKEnumerator{e: e, h: heap.NewFib[*canTuple]()}
}

// Err reports why the enumeration stopped: nil after a clean
// exhaustion, or the governance stop reason — context.Canceled,
// context.DeadlineExceeded, or a govern.ErrBudgetExhausted — when the
// budget tripped and the ranking produced so far is a partial prefix.
// It is meaningful once NextCore/Next has returned ok == false.
func (it *TopKEnumerator) Err() error { return it.err }

// stop freezes the enumeration with a governance stop reason.
func (it *TopKEnumerator) stop(err error) (CoreCost, bool) {
	it.err = err
	it.done = true
	return CoreCost{}, false
}

// NextCore returns the core of the next best community in ranking
// order, or ok == false when the query is exhausted or its budget
// tripped (Err distinguishes the two).
func (it *TopKEnumerator) NextCore() (CoreCost, bool) {
	if it.done {
		return CoreCost{}, false
	}
	bud := it.e.budget
	if err := bud.Err(); err != nil {
		return it.stop(err)
	}
	// Pre-charge the result grant: with MaxResults = k exactly k calls
	// succeed and the k+1st reports the exhausted budget.
	if err := bud.ChargeResult(); err != nil {
		return it.stop(err)
	}
	if !it.started {
		it.started = true
		if it.e.HasAllKeywords() {
			it.e.clearSlots()
			for i := 0; i < it.e.l; i++ {
				it.e.setSlotFull(i)
			}
			c, cost, ok := it.e.bestCore()
			if err := bud.Err(); err != nil {
				return it.stop(err)
			}
			if ok {
				it.h.Insert(cost, &canTuple{core: c, cost: cost, pos: 0})
				it.tuples++
				it.e.tr.Add(obs.CanTuples, 1)
				it.e.tr.SetMax(obs.CanListMax, int64(it.h.Len()))
				bud.ChargeTuple(it.tupleBytes())
			}
		}
	}
	node := it.h.ExtractMin()
	if node == nil {
		return CoreCost{}, false
	}
	g := node.Value
	it.expand(g)
	// The extracted minimum was fully determined before expand ran, so
	// it is returned even when expansion tripped the budget; the next
	// call observes the sticky reason and stops.
	if err := bud.Err(); err != nil {
		it.err = err
		it.done = true
	}
	it.emitted++
	return CoreCost{Core: g.core, Cost: g.cost}, true
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
func (it *TopKEnumerator) Next() (*Community, bool) {
	cc, ok := it.NextCore()
	if !ok {
		return nil, false
	}
	// A budget that tripped during expansion, or trips during
	// materialization, would leave this community missing nodes; drop
	// it rather than hand back a silently-wrong result.
	if err := it.e.budget.Err(); err != nil {
		it.stop(err)
		return nil, false
	}
	r := it.e.GetCommunity(cc.Core)
	if err := it.e.budget.Err(); err != nil {
		it.stop(err)
		return nil, false
	}
	return r, true
}

// expand is the paper's procedure Next(g) (Algorithm 5, lines 15-31):
// split g's subspace at every position from l down to g.pos, find the
// best core of each sub-subspace and enheap it.
func (it *TopKEnumerator) expand(g *canTuple) {
	l := it.e.l
	// Preparation: pin every slot to g's core node (lines 16-17) and
	// rebuild the exclusion set of g's own subspace at position g.pos
	// from the prev chain (the paper's lines 18-23; see the note below).
	removed := make([]map[graph.NodeID]struct{}, l)
	for i := 0; i < l; i++ {
		it.e.setSlotSingle(i, g.core[i])
	}
	// The subspace g was found in excludes, at position g.pos, the core
	// nodes of the maximal ancestor chain that kept splitting at that
	// same position: when parent h split at position p creating child
	// with pos == p, the child's subspace excluded h.core[p] there, and
	// inherited h's own exclusions at p iff h.pos == p too. (This is
	// where we deviate from the paper's printed pseudocode, which
	// removes h.C[h.pos] for every ancestor h and would re-enumerate a
	// parent's core when split positions repeat down a chain.)
	removed[g.pos] = make(map[graph.NodeID]struct{})
	for h := g; h.pos == g.pos && h.prev != nil; {
		h = h.prev
		removed[g.pos][h.core[g.pos]] = struct{}{}
	}

	seeds := func(i int) []graph.NodeID {
		vi := it.e.keywordNodes[i]
		if len(removed[i]) == 0 {
			return vi
		}
		out := make([]graph.NodeID, 0, len(vi))
		for _, v := range vi {
			if _, gone := removed[i][v]; !gone {
				out = append(out, v)
			}
		}
		return out
	}

	// Split loop (lines 24-31), from position l-1 down to g.pos.
	for i := l - 1; i >= g.pos; i-- {
		if removed[i] == nil {
			removed[i] = make(map[graph.NodeID]struct{})
		}
		removed[i][g.core[i]] = struct{}{}
		it.e.setSlot(i, seeds(i))
		c, cost, ok := it.e.bestCore()
		// A trip during the pins, the slot recompute or the scan makes
		// this and every further sub-subspace probe unreliable; abandon
		// the expansion (NextCore freezes the enumeration right after).
		if it.e.budget.Err() != nil {
			return
		}
		if ok {
			it.h.Insert(cost, &canTuple{core: c, cost: cost, pos: i, prev: g})
			it.tuples++
			it.e.tr.Add(obs.CanTuples, 1)
			it.e.tr.SetMax(obs.CanListMax, int64(it.h.Len()))
			if it.e.budget.ChargeTuple(it.tupleBytes()) != nil {
				return
			}
		}
		// Restore position i for the next (lower) split position: for
		// i > g.pos the chain holds no exclusions there, so this is the
		// full V_i again (lines 30-31), restored from the cache for
		// free. The last iteration needs no restore.
		if i > g.pos {
			delete(removed[i], g.core[i])
			it.e.setSlotFull(i)
		}
	}
}

// Emitted reports how many communities have been produced so far.
func (it *TopKEnumerator) Emitted() int { return it.emitted }

// PendingCandidates reports how many candidate cores are currently
// enheaped, at most l per emitted result.
func (it *TopKEnumerator) PendingCandidates() int { return it.h.Len() }

// Bytes estimates the enumerator's logical working memory beyond the
// engine: the can-list (every tuple ever created stays reachable as a
// prev parent, the paper's O(l²·k) term) plus heap overhead.
func (it *TopKEnumerator) Bytes() int64 {
	perTuple := int64(it.e.l)*4 + 48
	return int64(it.tuples)*perTuple + int64(it.h.Len())*56
}
