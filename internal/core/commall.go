package core

import "commdb/internal/graph"

// AllEnumerator is Algorithm 1 (PDall): it enumerates every community
// of the query in polynomial delay O(l·(n·log n + m)) per result with
// O(l·n + m) working space, complete and duplication-free by core.
//
// It walks the Lawler partition (see subspace) depth first. After
// emitting core C, the remaining cores are exactly
//
//	⋃_i {C[1..i-1]} × (V_i − excl[i] − {C[i]}) × V_{i+1} × … × V_l,
//
// where excl[i] holds the exclusions at position i of the subspaces on
// the current root-to-leaf path (the paper's global S_i = V_i −
// excl[i]). Each term is probed by one BestCore call, from position l
// down; the first hit is the next core.
type AllEnumerator struct {
	walk
	cur  Core
	excl [][]graph.NodeID // sorted, one list per position
}

// NewAll returns a COMM-all enumerator for the engine's query. The
// engine must not be shared with another running enumerator.
func NewAll(e *Engine) *AllEnumerator {
	return &AllEnumerator{walk: walk{e: e}, excl: make([][]graph.NodeID, e.l)}
}

// NextCore advances the enumeration and returns the next core with its
// cost, or ok == false when the query is exhausted or its budget
// tripped (Err distinguishes the two).
func (it *AllEnumerator) NextCore() (CoreCost, bool) {
	if !it.enter() {
		return CoreCost{}, false
	}
	if !it.started {
		c, cost, ok := it.first()
		if !ok {
			return CoreCost{}, false
		}
		it.cur = c
		return it.emit(c, cost)
	}
	// Procedure Next (Algorithm 1, lines 10-21).
	var next CoreCost
	err := it.e.split(it.cur, 0, func(i int) []graph.NodeID { return it.excl[i] },
		func(s subspace, cost float64, found bool) bool {
			// A miss resets the position: any later combination may
			// reuse the whole V_i again (line 19).
			it.excl[s.pos] = it.excl[s.pos][:0]
			if found {
				it.excl[s.pos] = append(it.excl[s.pos], s.excl...)
				next = CoreCost{Core: s.core, Cost: cost}
			}
			return found
		})
	if err != nil {
		return it.stop(err)
	}
	if next.Core == nil {
		it.done = true
		return CoreCost{}, false
	}
	it.cur = next.Core
	return it.emit(next.Core, next.Cost)
}

// Next advances the enumeration and materializes the community for the
// next core, or returns ok == false when exhausted or the budget
// tripped (see Err).
func (it *AllEnumerator) Next() (*Community, bool) { return it.materialize(it.NextCore()) }

// Bytes estimates the enumerator's logical working memory beyond the
// engine: the exclusion lists and current core.
func (it *AllEnumerator) Bytes() int64 {
	b := int64(len(it.cur)) * 4
	for _, x := range it.excl {
		b += int64(len(x))*4 + 24
	}
	return b
}
