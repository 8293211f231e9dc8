package core

import (
	"errors"
	"sync"

	"commdb/internal/govern"
)

// This file implements the in-query materialization pipeline: the
// enumerators' NextCore loop stays strictly sequential (every slot
// mutation and BestCore scan happens on one producer goroutine, so the
// paper's enumeration order is untouched), while the per-core
// GetCommunity materializations — one-plus bounded Dijkstras each, and
// independent of the enumeration state — fan out across worker
// goroutines. A reorder buffer on the consumer side re-serializes
// completed communities by sequence number, so the caller observes the
// exact sequential emission order, stop reason and Err() contract of
// the unpiped enumerator; only the wall-clock between results changes.

// CoreSource is the face of an enumerator the pipeline drives: the
// sequential core producer plus its terminal stop reason.
type CoreSource interface {
	NextCore() (CoreCost, bool)
	Err() error
}

// matTask is one core awaiting materialization.
type matTask struct {
	seq int
	cc  CoreCost
}

// matResult is one pipeline slot arriving at the consumer. Exactly one
// result is produced per sequence number; the terminal sentinel (last)
// carries the producer's stop reason and the highest sequence number,
// so the reorder buffer naturally delivers it after every community.
type matResult struct {
	seq  int
	cc   CoreCost
	comm *Community
	err  error // budget stop reason observed around this materialization
	pan  any   // a worker/producer panic, re-raised on the consumer
	last bool  // terminal: err is the producer's Err()
}

// Pipeline runs a CoreSource through parallel materialization. Not
// safe for concurrent use by multiple consumers — like the enumerators
// it wraps, it serves one query's iterator.
type Pipeline struct {
	e       *Engine
	tasks   chan matTask
	results chan matResult
	quit    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
	// workersWG covers only the worker goroutines, so the producer can
	// retire them (drain) before letting a results-budget trip land.
	workersWG sync.WaitGroup
	// scratch[w] is worker w's materialization scratch; Close hands
	// them to the engine, whose Close recycles them.
	scratch []*gcScratch

	// Consumer state: the reorder buffer keyed by sequence number, the
	// next sequence to deliver, and the frozen outcome.
	pending map[int]matResult
	want    int
	err     error
	done    bool
}

// NewPipeline starts the producer and workers goroutines over src.
// workers must be >= 1; callers gain nothing below 2.
func NewPipeline(e *Engine, src CoreSource, workers int) *Pipeline {
	p := &Pipeline{
		e: e,
		// tasks buffers one core per worker: bounded lookahead, so the
		// producer cannot race arbitrarily far ahead of the consumer
		// (result pre-charges stay within one pipeline depth of the
		// delivered count).
		tasks:   make(chan matTask, workers),
		results: make(chan matResult, 2*workers),
		quit:    make(chan struct{}),
		pending: make(map[int]matResult),
		scratch: make([]*gcScratch, workers),
	}
	// All workersWG.Add calls must precede the producer's start: it may
	// reach workersWG.Wait (the results-budget drain) immediately.
	p.wg.Add(1 + workers)
	p.workersWG.Add(workers)
	go p.produce(src)
	for w := 0; w < workers; w++ {
		go p.work(w)
	}
	return p
}

// produce drives the sequential enumeration, feeding cores to the
// workers and terminating with the sentinel.
//
// The drain dance preserves MaxResults semantics: sequentially, the
// results budget can only trip between materializations (the
// pre-charge at the top of NextCore), so every granted community is
// emitted intact. With lookahead, the producer's tripping charge would
// land while granted communities are still materializing — and a
// sticky trip aborts their Dijkstras, voiding them retroactively. So
// once the results budget is fully granted, the producer retires the
// workers and finishes inline: the final, tripping NextCore then runs
// with nothing in flight, exactly like the sequential enumerator.
func (p *Pipeline) produce(src CoreSource) {
	defer p.wg.Done()
	seq := 0
	term := matResult{last: true}
	drained := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				term.pan = r
			}
		}()
		for {
			if !drained && p.e.budget.AtResultsLimit() {
				close(p.tasks)
				p.workersWG.Wait()
				drained = true
			}
			cc, ok := src.NextCore()
			if !ok {
				term.err = src.Err()
				return
			}
			if drained {
				// Inline materialization on the engine's own scratch —
				// safe, the producer is the sole goroutine left — with
				// the sequential drop-on-trip checks around it.
				if err := p.e.budget.Err(); err != nil {
					term.err = err
					return
				}
				comm := p.e.GetCommunity(cc.Core)
				if err := p.e.budget.Err(); err != nil {
					term.err = err
					return
				}
				select {
				case p.results <- matResult{seq: seq, cc: cc, comm: comm}:
					seq++
				case <-p.quit:
					return
				}
				continue
			}
			select {
			case p.tasks <- matTask{seq: seq, cc: cc}:
				seq++
			case <-p.quit:
				return
			}
		}
	}()
	if !drained {
		close(p.tasks)
	}
	term.seq = seq
	select {
	case p.results <- term:
	case <-p.quit:
	}
}

// work materializes cores on a private scratch until the task stream
// ends or the pipeline is torn down.
func (p *Pipeline) work(w int) {
	defer p.wg.Done()
	defer p.workersWG.Done()
	ws := p.e.pool.Get(p.e.g)
	ws.SetBudget(p.e.budget)
	ws.SetTrace(p.e.tr)
	sc := p.e.newGCScratch(ws, true)
	p.scratch[w] = sc
	for t := range p.tasks {
		res := p.materialize(t, sc)
		select {
		case p.results <- res:
		case <-p.quit:
			return
		}
	}
}

// materialize runs one GetCommunity with the sequential path's
// drop-on-trip semantics: a budget that is already tripped, or trips
// during the materialization, voids the community — the consumer
// stops with that reason instead of handing back a silently-wrong
// result. Panics are shipped to the consumer and re-raised there, so
// the public recover boundary still sees them.
func (p *Pipeline) materialize(t matTask, sc *gcScratch) (res matResult) {
	res = matResult{seq: t.seq, cc: t.cc}
	defer func() {
		if r := recover(); r != nil {
			res.pan = r
			res.comm = nil
		}
	}()
	if err := p.e.budget.Err(); err != nil {
		res.err = err
		return res
	}
	comm := p.e.getCommunity(t.cc.Core, sc)
	if err := p.e.budget.Err(); err != nil {
		res.err = err
		return res
	}
	res.comm = comm
	return res
}

// Next delivers the pipeline's next in-order result. ok == false means
// the enumeration finished or stopped; Err then reports why, exactly
// as the wrapped enumerator would have.
//
// A canceled context or a passed deadline is observed here, before
// anything is dequeued: the lookahead buffered ahead of the cancel is
// dropped, so the first Next after a cancel already reports it, as the
// sequential enumerator does. Counter trips are deliberately not acted
// on here — they arrive in sequence order through the results, behind
// every community the budget had already granted.
func (p *Pipeline) Next() (CoreCost, *Community, bool) {
	if p.done {
		return CoreCost{}, nil, false
	}
	if err := p.e.budget.Poll(); err != nil && !errors.As(err, new(govern.ErrBudgetExhausted)) {
		p.finish(err)
		return CoreCost{}, nil, false
	}
	for {
		res, ok := p.pending[p.want]
		if !ok {
			res = <-p.results
			if res.seq != p.want {
				p.pending[res.seq] = res
				continue
			}
		} else {
			delete(p.pending, p.want)
		}
		p.want++
		if res.pan != nil {
			p.finish(nil)
			panic(res.pan)
		}
		if res.last {
			p.finish(res.err)
			return CoreCost{}, nil, false
		}
		if res.err != nil {
			p.finish(res.err)
			return CoreCost{}, nil, false
		}
		return res.cc, res.comm, true
	}
}

// finish freezes the outcome and tears down the background goroutines.
func (p *Pipeline) finish(err error) {
	p.err = err
	p.done = true
	p.pending = nil
	p.stop.Do(func() { close(p.quit) })
}

// Err reports the frozen stop reason; meaningful once Next has
// returned ok == false.
func (p *Pipeline) Err() error { return p.err }

// Close tears the pipeline down and waits for every goroutine to exit,
// handing the workers' scratches to the engine, whose Close returns
// them to its pool. Idempotent; safe mid-enumeration.
func (p *Pipeline) Close() {
	p.done = true
	p.stop.Do(func() { close(p.quit) })
	// Unblock workers parked on a full results channel: quit covers
	// their sends, so draining is not required for exit, but the
	// channel may still hold buffered results — drop them.
	p.wg.Wait()
	for _, sc := range p.scratch {
		if sc != nil {
			p.e.spare = append(p.e.spare, sc)
		}
	}
	p.scratch = nil
	for {
		select {
		case <-p.results:
		default:
			return
		}
	}
}
