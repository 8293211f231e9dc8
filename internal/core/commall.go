package core

import "commdb/internal/graph"

// AllEnumerator is Algorithm 1 (PDall): it enumerates every community
// of the query in polynomial delay O(l·(n·log n + m)) per result with
// O(l·n + m) working space, complete and duplication-free by core.
//
// The enumerator maintains one candidate subset S_i per keyword (the
// paper's global S_i variables) and walks the virtual subspace tree
// depth-first: after emitting core C, the remaining cores are exactly
//
//	⋃_i {C[1..i-1]} × (S_i − {C[i]}) × V_{i+1} × … × V_l,
//
// each term of which is probed by one BestCore call over recomputed
// neighborSets.
type AllEnumerator struct {
	e       *Engine
	cur     Core
	removed []map[graph.NodeID]struct{} // S_i = V_i − removed[i]
	started bool
	done    bool
	emitted int
	err     error // stop reason when the engine's budget tripped
}

// NewAll returns a COMM-all enumerator for the engine's query. The
// engine must not be shared with another running enumerator.
func NewAll(e *Engine) *AllEnumerator {
	it := &AllEnumerator{
		e:       e,
		removed: make([]map[graph.NodeID]struct{}, e.l),
	}
	for i := range it.removed {
		it.removed[i] = make(map[graph.NodeID]struct{})
	}
	return it
}

// seeds returns S_i as a slice: V_i minus the removed set.
func (it *AllEnumerator) seeds(i int) []graph.NodeID {
	vi := it.e.keywordNodes[i]
	if len(it.removed[i]) == 0 {
		return vi
	}
	out := make([]graph.NodeID, 0, len(vi)-len(it.removed[i]))
	for _, v := range vi {
		if _, gone := it.removed[i][v]; !gone {
			out = append(out, v)
		}
	}
	return out
}

// Err reports why the enumeration stopped: nil after a clean
// exhaustion (every community was produced), or the governance stop
// reason — context.Canceled, context.DeadlineExceeded, or a
// govern.ErrBudgetExhausted — when the query's budget tripped and the
// results produced so far are a partial set. It is meaningful once
// NextCore/Next has returned ok == false.
func (it *AllEnumerator) Err() error { return it.err }

// stop freezes the enumeration with a governance stop reason.
func (it *AllEnumerator) stop(err error) (CoreCost, bool) {
	it.err = err
	it.done = true
	return CoreCost{}, false
}

// NextCore advances the enumeration and returns the next core with its
// cost, or ok == false when the query is exhausted or its budget
// tripped (Err distinguishes the two).
func (it *AllEnumerator) NextCore() (CoreCost, bool) {
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
		if !it.e.HasAllKeywords() {
			it.done = true
			return CoreCost{}, false
		}
		it.e.clearSlots()
		for i := 0; i < it.e.l; i++ {
			it.e.setSlotFull(i)
		}
		c, cost, ok := it.e.bestCore()
		// A budget tripped during the slot runs or the scan leaves
		// partial slot state; discard whatever bestCore said.
		if err := bud.Err(); err != nil {
			return it.stop(err)
		}
		if !ok {
			it.done = true
			return CoreCost{}, false
		}
		it.cur = c
		it.emitted++
		return CoreCost{Core: c, Cost: cost}, true
	}

	// Procedure Next (Algorithm 1, lines 10-21). Pin every slot to the
	// current core's node, then probe subspaces from position l down.
	for i := 0; i < it.e.l; i++ {
		it.e.setSlotSingle(i, it.cur[i])
	}
	for i := it.e.l - 1; i >= 0; i-- {
		it.removed[i][it.cur[i]] = struct{}{}
		it.e.setSlot(i, it.seeds(i))
		c, cost, ok := it.e.bestCore()
		// One check covers the pins, the slot recompute and the scan:
		// any of them tripping invalidates this probe's outcome.
		if err := bud.Err(); err != nil {
			return it.stop(err)
		}
		if ok {
			it.cur = c
			it.emitted++
			return CoreCost{Core: c, Cost: cost}, true
		}
		// Subspace exhausted: any later combination may reuse the whole
		// V_i again (line 19); the cached full-set run is restored for
		// free.
		it.removed[i] = make(map[graph.NodeID]struct{})
		it.e.setSlotFull(i)
	}
	it.done = true
	return CoreCost{}, false
}

// Next advances the enumeration and materializes the community for the
// next core, or returns ok == false when exhausted or the budget
// tripped (see Err).
func (it *AllEnumerator) Next() (*Community, bool) {
	cc, ok := it.NextCore()
	if !ok {
		return nil, false
	}
	r := it.e.GetCommunity(cc.Core)
	// A trip during materialization leaves r missing nodes; drop it
	// rather than hand back a silently-wrong community.
	if err := it.e.budget.Err(); err != nil {
		it.stop(err)
		return nil, false
	}
	return r, true
}

// Emitted reports how many cores have been produced so far.
func (it *AllEnumerator) Emitted() int { return it.emitted }

// Bytes estimates the enumerator's logical working memory beyond the
// engine: the removed sets and current core.
func (it *AllEnumerator) Bytes() int64 {
	b := int64(len(it.cur)) * 4
	for _, m := range it.removed {
		b += int64(len(m))*12 + 48
	}
	return b
}
