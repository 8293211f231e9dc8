package core

import (
	"slices"

	"commdb/internal/graph"
)

// subspace is one term of the Lawler partition of the answer space that
// both enumerators walk (DESIGN.md, "Correctness notes"): the cores
// that agree with core on every position before pos, avoid excl at
// pos, and range over all of V_i after pos. core is the subspace's best
// core (nil when a probe found none). excl is sorted; it holds the node
// whose exclusion split the subspace off plus, only when the parent
// subspace sits at the same position, the parent's own exclusions there.
type subspace struct {
	pos  int
	core Core
	excl []graph.NodeID
}

// split probes the children of the subspace whose best core is c, one
// per position i from l−1 down to floor: slots before i pinned to c,
// slot i holding V_i − (inherited(i) ∪ {c[i]}), slots after i full.
// Each probe's outcome goes to probed as the child subspace, whose excl
// aliases engine scratch until probed returns; probed returning true
// ends the loop. The full set at i is restored only when the loop moves
// down to i−1.
//
// The slot installs happen in a fixed order — l pins, then per position
// one set run and one restore — because the aggregate table keeps float
// sums: another order can round a center's sum differently and move an
// equal-cost tie. split returns the budget's stop reason when a probe
// tripped it; that probe's outcome is discarded.
func (e *Engine) split(c Core, floor int, inherited func(i int) []graph.NodeID, probed func(s subspace, cost float64, found bool) bool) error {
	for i := 0; i < e.l; i++ {
		e.setSlotSingle(i, c[i])
	}
	for i := e.l - 1; i >= floor; i-- {
		excl := append(e.excl[:0], inherited(i)...)
		j, _ := slices.BinarySearch(excl, c[i])
		e.excl = slices.Insert(excl, j, c[i])
		e.setSlotExcept(i, e.excl)
		core, cost, ok := e.bestCore()
		// One check covers the pins, the slot recompute and the scan:
		// any of them tripping invalidates this probe's outcome.
		if err := e.budget.Err(); err != nil {
			return err
		}
		if probed(subspace{pos: i, core: core, excl: e.excl}, cost, ok) {
			return nil
		}
		if i > floor {
			e.setSlotFull(i)
		}
	}
	return nil
}

// walk is the skeleton both enumerators embed: the per-call governance
// pre-charge, the first call's whole-space BestCore, the stop reason
// and the materializing Next.
type walk struct {
	e       *Engine
	started bool
	done    bool
	emitted int
	err     error // stop reason when the engine's budget tripped
}

// Err reports why the enumeration stopped: nil after a clean
// exhaustion, or the governance stop reason — context.Canceled,
// context.DeadlineExceeded, or a govern.ErrBudgetExhausted — when the
// query's budget tripped and the results produced so far are a partial
// set (for COMM-k, a ranking prefix). It is meaningful once
// NextCore/Next has returned ok == false.
func (w *walk) Err() error { return w.err }

// Emitted reports how many cores have been produced so far.
func (w *walk) Emitted() int { return w.emitted }

// stop freezes the enumeration with a governance stop reason.
func (w *walk) stop(err error) (CoreCost, bool) {
	w.err = err
	w.done = true
	return CoreCost{}, false
}

// enter opens a NextCore call and reports whether it may go on. It
// pre-charges the result grant: with MaxResults = k exactly k calls
// succeed and the k+1st reports the exhausted budget.
func (w *walk) enter() bool {
	if w.done {
		return false
	}
	bud := w.e.budget
	if err := bud.Err(); err != nil {
		w.stop(err)
		return false
	}
	if err := bud.ChargeResult(); err != nil {
		w.stop(err)
		return false
	}
	return true
}

// first installs the l full sets and returns the best core of the
// whole answer space, or ok == false — with the enumeration frozen —
// when there is none or the budget tripped.
func (w *walk) first() (Core, float64, bool) {
	w.started = true
	e := w.e
	if !e.HasAllKeywords() {
		w.done = true
		return nil, 0, false
	}
	e.clearSlots()
	for i := 0; i < e.l; i++ {
		e.setSlotFull(i)
	}
	c, cost, ok := e.bestCore()
	// A budget tripped during the slot runs or the scan leaves partial
	// slot state; discard whatever bestCore said.
	if err := e.budget.Err(); err != nil {
		w.stop(err)
		return nil, 0, false
	}
	if !ok {
		w.done = true
	}
	return c, cost, ok
}

// emit hands one core over to the caller.
func (w *walk) emit(c Core, cost float64) (CoreCost, bool) {
	w.emitted++
	return CoreCost{Core: c, Cost: cost}, true
}

// materialize is Next after NextCore: it builds the community of the
// core handed over. A core handed over by a call that also froze the
// enumeration, or a budget tripping during materialization, would leave
// the community missing nodes; it is dropped rather than returned
// silently wrong.
func (w *walk) materialize(cc CoreCost, ok bool) (*Community, bool) {
	if !ok || w.done {
		return nil, false
	}
	r := w.e.GetCommunity(cc.Core)
	if err := w.e.budget.Err(); err != nil {
		w.stop(err)
		return nil, false
	}
	return r, true
}
