// Package govern implements query governance: cancellation, deadlines
// and resource budgets threaded through every long-running path of the
// search stack.
//
// The paper's polynomial-delay guarantee bounds the gap *between*
// results, not a query's total cost: COMM-all over a frequent keyword
// set can legally enumerate an exponential number of communities, and
// one Neighbor() pass is a full radius-bounded Dijkstra over the
// projected graph. A server cannot ship an enumeration API with no way
// to cancel, time-bound, or cap a query, so every hot loop in the
// repo periodically consults a Budget and stops early — returning the
// results produced so far plus a typed reason — when the budget trips.
//
// # Cost model
//
// A Budget tracks five resources:
//
//   - relaxations: Dijkstra work units (edge relaxations plus node
//     settlements) across every shortest-path run of the query,
//     including index builds and projections. This is the
//     machine-independent "visited" measure.
//   - neighbor-runs: bounded Dijkstra invocations (the paper's
//     Neighbor() and GetCommunity() passes), the coarse-grained
//     per-result cost the delay analysis counts.
//   - can-tuples: candidate tuples held by the top-k can-list, whose
//     O(l²·k) growth is the paper's only unbounded space term.
//   - heap-bytes: the logical bytes behind those tuples.
//   - results: communities granted to the caller.
//
// # Amortization
//
// Checking a deadline costs a clock read and checking a context costs
// an atomic load; neither belongs in a loop that relaxes an edge in a
// few nanoseconds. Call sites therefore batch: they accumulate work in
// a local counter and call Charge* once per Stride (~1024) operations.
//
// # Concurrency
//
// Every counter is an atomic and the sticky stop reason is a
// lock-free load, so one Budget is safely — and cheaply — shared by
// all the worker goroutines of a parallel query: the fan-out Dijkstras
// of engine init, the materialization pipeline, and a parallel index
// build all charge the same Budget without serializing on a mutex.
// The mutex is only taken on the trip path, to record the first
// failure exactly once.
//
// A nil *Budget is valid everywhere and means "unlimited": every
// method is a no-op on a nil receiver, so ungoverned paths pay one
// branch.
package govern

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stride is the recommended number of fine-grained operations a hot
// loop performs between Charge* calls. At ~1ns-10ns per operation a
// stride of 1024 bounds the detection latency well under a
// millisecond while keeping governance off the critical path.
const Stride = 1024

// Resource names one budgeted quantity in an ErrBudgetExhausted.
type Resource string

const (
	// ResourceRelaxations counts Dijkstra work units: edge relaxations
	// plus node settlements, summed over every shortest-path run.
	ResourceRelaxations Resource = "relaxations"
	// ResourceNeighborRuns counts bounded Dijkstra invocations.
	ResourceNeighborRuns Resource = "neighbor-runs"
	// ResourceCanTuples counts candidate tuples in the top-k can-list.
	ResourceCanTuples Resource = "can-tuples"
	// ResourceHeapBytes counts the logical bytes of the can-list.
	ResourceHeapBytes Resource = "heap-bytes"
	// ResourceResults counts communities granted to the caller.
	ResourceResults Resource = "results"
)

// ErrBudgetExhausted reports which resource tripped a budget. Spent is
// the amount consumed when the limit was noticed (amortized checking
// may overshoot the limit by up to one Stride).
//
// Match it with errors.As:
//
//	var be govern.ErrBudgetExhausted
//	if errors.As(err, &be) { log.Printf("out of %s", be.Resource) }
type ErrBudgetExhausted struct {
	Resource Resource
	Spent    int64
	Limit    int64
}

func (e ErrBudgetExhausted) Error() string {
	return fmt.Sprintf("budget exhausted: %s (spent %d, limit %d)", e.Resource, e.Spent, e.Limit)
}

// Limits caps one query's resource consumption. The zero value (and a
// zero in any field) means unlimited. Deadline and Timeout compose
// with a context deadline; the earliest wins.
type Limits struct {
	// Deadline is an absolute wall-clock cutoff.
	Deadline time.Time
	// Timeout is a relative cutoff measured from Budget creation. Like
	// context.WithTimeout, a negative Timeout is already expired.
	Timeout time.Duration
	// MaxRelaxations caps total Dijkstra work units (edge relaxations
	// plus node settlements) across the query's shortest-path runs.
	MaxRelaxations int64
	// MaxNeighborRuns caps bounded Dijkstra invocations.
	MaxNeighborRuns int64
	// MaxCanTuples caps the top-k can-list length.
	MaxCanTuples int64
	// MaxHeapBytes caps the top-k can-list's logical bytes.
	MaxHeapBytes int64
	// MaxResults caps how many communities the query may produce.
	MaxResults int64
}

// IsZero reports whether no limit is set.
func (l Limits) IsZero() bool {
	return l.Deadline.IsZero() && l.Timeout == 0 && l.MaxRelaxations == 0 &&
		l.MaxNeighborRuns == 0 && l.MaxCanTuples == 0 && l.MaxHeapBytes == 0 &&
		l.MaxResults == 0
}

// Budget is one query's governance state: a context, a resolved
// deadline, the limits, and the running spend. Once any check fails
// the Budget is tripped: the first failure is recorded and every
// subsequent Charge*/Poll/Err returns it, so all layers of a query
// observe one consistent stop reason.
//
// A Budget is safe for concurrent use: counters are atomics charged
// lock-free from any number of worker goroutines, and the sticky stop
// reason is published through an atomic pointer. Methods on a nil
// *Budget are no-ops returning nil, so a nil Budget is the canonical
// "unlimited".
type Budget struct {
	ctx context.Context

	// deadline/hasDeadline/lim are written once in New and read-only
	// afterwards, so charges need no lock to consult them.
	deadline    time.Time
	hasDeadline bool
	lim         Limits

	relaxations  atomic.Int64
	neighborRuns atomic.Int64
	canTuples    atomic.Int64
	heapBytes    atomic.Int64
	results      atomic.Int64

	// stop is the sticky stop reason; mu serializes only the trip path
	// so the first failure wins exactly once.
	stop atomic.Pointer[error]
	mu   sync.Mutex
}

// New builds a Budget from a context and limits. It returns nil — the
// unlimited budget — when ctx carries no cancellation or deadline and
// lim is zero, so ungoverned queries skip governance entirely.
func New(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	_, ctxDeadline := ctx.Deadline()
	if lim.IsZero() && ctx.Done() == nil && !ctxDeadline {
		return nil
	}
	b := &Budget{ctx: ctx, lim: lim}
	b.deadline, b.hasDeadline = effectiveDeadline(ctx, lim, time.Now())
	return b
}

// effectiveDeadline resolves the earliest of the context deadline, the
// absolute limit deadline, and now+Timeout.
func effectiveDeadline(ctx context.Context, lim Limits, now time.Time) (time.Time, bool) {
	var d time.Time
	ok := false
	consider := func(t time.Time) {
		if !ok || t.Before(d) {
			d = t
			ok = true
		}
	}
	if t, has := ctx.Deadline(); has {
		consider(t)
	}
	if !lim.Deadline.IsZero() {
		consider(lim.Deadline)
	}
	if lim.Timeout != 0 {
		consider(now.Add(lim.Timeout))
	}
	return d, ok
}

// Err returns the sticky stop reason, first re-checking cancellation
// and the deadline so a context canceled between charges is noticed on
// the next governance touchpoint.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	return b.check()
}

// Poll is a pure liveness check — the sticky reason, cancellation and
// the deadline, no counter — for loops that scan rather than expand
// (e.g. the BestCore table scan). Call it once per Stride iterations.
func (b *Budget) Poll() error {
	if b == nil {
		return nil
	}
	return b.alive()
}

// ChargeRelaxations adds n Dijkstra work units and checks the budget.
func (b *Budget) ChargeRelaxations(n int64) error {
	if b == nil {
		return nil
	}
	b.relaxations.Add(n)
	return b.check()
}

// ChargeNeighborRun records one bounded Dijkstra invocation.
func (b *Budget) ChargeNeighborRun() error {
	if b == nil {
		return nil
	}
	b.neighborRuns.Add(1)
	return b.check()
}

// ChargeTuple records one can-list tuple of the given logical size.
func (b *Budget) ChargeTuple(bytes int64) error {
	if b == nil {
		return nil
	}
	b.canTuples.Add(1)
	b.heapBytes.Add(bytes)
	return b.check()
}

// ChargeResult grants one result to the caller. Enumerators pre-charge
// at the top of Next, so MaxResults = k yields exactly k results and
// then an ErrBudgetExhausted{Resource: ResourceResults}.
func (b *Budget) ChargeResult() error {
	if b == nil {
		return nil
	}
	b.results.Add(1)
	return b.check()
}

// AtResultsLimit reports whether the results budget is fully granted,
// i.e. the next ChargeResult must trip. The materialization pipeline
// peeks at this to drain in-flight work before taking the final,
// tripping charge: a sticky trip aborts every concurrent Dijkstra, and
// communities already granted must not be voided retroactively.
func (b *Budget) AtResultsLimit() bool {
	if b == nil {
		return false
	}
	return b.lim.MaxResults > 0 && b.results.Load() >= b.lim.MaxResults
}

// Spent reports the current consumption of one resource.
func (b *Budget) Spent(r Resource) int64 {
	if b == nil {
		return 0
	}
	switch r {
	case ResourceRelaxations:
		return b.relaxations.Load()
	case ResourceNeighborRuns:
		return b.neighborRuns.Load()
	case ResourceCanTuples:
		return b.canTuples.Load()
	case ResourceHeapBytes:
		return b.heapBytes.Load()
	case ResourceResults:
		return b.results.Load()
	}
	return 0
}

// alive evaluates, in order: the sticky reason, context cancellation,
// the deadline. The first failure is recorded and returned forever
// after.
func (b *Budget) alive() error {
	if p := b.stop.Load(); p != nil {
		return *p
	}
	if err := context.Cause(b.ctx); err != nil {
		return b.trip(err)
	}
	if b.hasDeadline && !time.Now().Before(b.deadline) {
		return b.trip(context.DeadlineExceeded)
	}
	return nil
}

// check is alive plus each counter against its limit.
func (b *Budget) check() error {
	if err := b.alive(); err != nil {
		return err
	}
	type probe struct {
		res   Resource
		spent int64
		limit int64
	}
	for _, p := range []probe{
		{ResourceRelaxations, b.relaxations.Load(), b.lim.MaxRelaxations},
		{ResourceNeighborRuns, b.neighborRuns.Load(), b.lim.MaxNeighborRuns},
		{ResourceCanTuples, b.canTuples.Load(), b.lim.MaxCanTuples},
		{ResourceHeapBytes, b.heapBytes.Load(), b.lim.MaxHeapBytes},
		{ResourceResults, b.results.Load(), b.lim.MaxResults},
	} {
		if p.limit > 0 && p.spent > p.limit {
			return b.trip(ErrBudgetExhausted{Resource: p.res, Spent: p.spent, Limit: p.limit})
		}
	}
	return nil
}

// trip records err as the sticky stop reason unless another goroutine
// beat it; the recorded reason — not necessarily err — is returned, so
// every caller observes the same first failure.
func (b *Budget) trip(err error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.stop.Load(); p != nil {
		return *p
	}
	b.stop.Store(&err)
	return err
}
