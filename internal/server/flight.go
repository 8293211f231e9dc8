package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errFlightAbandoned cancels a coalesced execution once every caller
// waiting on it has gone away.
var errFlightAbandoned = errors.New("commserve: all callers abandoned the query")

// flightGroup coalesces concurrent identical work: all callers that
// present the same key while a call is in flight share one execution
// and one answer, so N clients issuing the same expensive query run the
// engine once.
//
// Unlike a classic singleflight, membership is refcounted for correct
// cancellation: each waiter that gives up (its own context ends)
// detaches, and when the last waiter detaches the shared execution's
// context is canceled — an execution nobody is waiting for stops
// burning budget. The execution context descends from the group's base
// context, so server shutdown cancels every in-flight call.
type flightGroup struct {
	base  context.Context // ancestor of every execution context
	joins atomic.Int64    // callers that attached to an existing flight
	mu    sync.Mutex
	m     map[flightKey]*flight
}

// flightKey identifies one coalescable execution: the cache identity
// plus whether the run must produce a trace.
type flightKey struct {
	cacheKey
	trace bool
}

type flight struct {
	refs   int // waiters attached; guarded by the group mutex
	cancel context.CancelCauseFunc
	done   chan struct{} // closed after val/err are set
	val    *CachedAnswer
	err    error
}

func newFlightGroup(base context.Context) *flightGroup {
	return &flightGroup{base: base, m: make(map[flightKey]*flight)}
}

// Do returns the result of fn for key, sharing one execution among all
// concurrent callers with the same key. shared reports whether this
// caller joined an execution started by another. If ctx ends before
// the shared execution finishes, Do detaches and returns ctx's cause;
// the execution keeps running for the remaining waiters (and is
// canceled when none remain).
func (g *flightGroup) Do(ctx context.Context, key flightKey, fn func(ctx context.Context) (*CachedAnswer, error)) (val *CachedAnswer, shared bool, err error) {
	g.mu.Lock()
	f, joined := g.m[key]
	if !joined {
		fctx, cancel := context.WithCancelCause(g.base)
		f = &flight{cancel: cancel, done: make(chan struct{})}
		g.m[key] = f
		go g.run(key, f, fctx, fn)
	} else {
		g.joins.Add(1)
	}
	f.refs++
	g.mu.Unlock()

	select {
	case <-f.done:
		g.detach(f)
		return f.val, joined, f.err
	case <-ctx.Done():
		g.detach(f)
		return nil, joined, context.Cause(ctx)
	}
}

// run executes fn and publishes the outcome. The flight leaves the map
// before done is signaled, so late arrivals start a fresh execution
// (result reuse across time is the cache's job, not the group's).
func (g *flightGroup) run(key flightKey, f *flight, fctx context.Context, fn func(ctx context.Context) (*CachedAnswer, error)) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("commserve: query execution panicked: %v", p)
		}
		f.cancel(nil)
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn(fctx)
}

// detach drops one waiter; the last one out cancels an execution that
// has not finished yet.
func (g *flightGroup) detach(f *flight) {
	g.mu.Lock()
	f.refs--
	if f.refs == 0 {
		select {
		case <-f.done:
		default:
			f.cancel(errFlightAbandoned)
		}
	}
	g.mu.Unlock()
}
