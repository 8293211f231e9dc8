// Package snapshot gives a serving process epoch-versioned hot reload
// of its graph+index: a running server atomically swaps in a freshly
// loaded Searcher while every in-flight query — including long NDJSON
// streams — finishes on the epoch it started on. An epoch is an
// immutable value behind a pointer: a request loads the pointer once
// and holds it for its whole response, and the garbage collector
// retires an epoch when the manager and the last request have let go.
//
// Loading is fail-closed. A reload that fails for any reason —
// corrupt or truncated artifact, wrong-graph index, I/O error, panic
// inside the loader — leaves the current epoch serving untouched and
// records the rejection; transient I/O errors are retried a bounded
// number of times with doubling backoff, while corruption and
// validation failures are permanent and fail immediately. After a
// successful swap the new epoch serves on probation: if one of its
// first queries hits an internal error (a recovered engine panic, on
// data that passed every load-time check), the manager rolls back to
// the previous epoch, which it keeps a pointer to until probation
// passes.
//
// Epoch lifecycle:
//
//	          Reload ok                 probation passes
//	serving ───────────► probation ───────────────────► committed
//	   ▲  ▲                  │                        (prev dropped)
//	   │  │ load fails       │ ErrInternal
//	   │  └──(no change)     ▼
//	   └──────────────── rolled back (prev restored)
package snapshot

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"commdb"
	"commdb/internal/fault"
	"commdb/internal/index"
)

// Reload outcomes, the label values of commdb_reload_total.
const (
	OutcomeSuccess            = "success"
	OutcomeRejectedCorrupt    = "rejected_corrupt"
	OutcomeRejectedIO         = "rejected_io"
	OutcomeRejectedPanic      = "rejected_panic"
	OutcomeRejectedValidation = "rejected_validation"
	OutcomeRolledBack         = "rolled_back"
)

// Outcomes lists every reload outcome in a fixed order, so metric
// exports are deterministic and zero-valued series exist from the
// first scrape.
var Outcomes = []string{
	OutcomeSuccess,
	OutcomeRejectedCorrupt,
	OutcomeRejectedIO,
	OutcomeRejectedPanic,
	OutcomeRejectedValidation,
	OutcomeRolledBack,
}

// ErrLoadPanic wraps a panic recovered inside a loader; like
// corruption it is treated as permanent for the artifact.
var ErrLoadPanic = errors.New("snapshot: panic during load")

// ErrReloadInFlight is returned when a reload is requested while
// another one is still running.
var ErrReloadInFlight = errors.New("snapshot: reload already in flight")

// Loader produces the Searcher for a new epoch. The injector (nil in
// production) lets chaos tests corrupt the loader's reads; file-based
// loaders wrap their readers at fault.PointGraphRead /
// fault.PointIndexRead. A Loader must either return a fully validated
// Searcher or an error — never a partially initialized one.
type Loader func(inj *fault.Injector) (*commdb.Searcher, error)

// The reload policy every deployment runs. A load that fails with a
// transient error is re-attempted loadRetries times, the first after
// loadBackoff and each later one after twice the previous wait;
// corruption, validation failures and panics never retry. A fresh epoch
// must serve probationQueries queries before the previous epoch is
// dropped; the first internal error inside the window rolls it back.
const (
	loadRetries      = 2
	loadBackoff      = 50 * time.Millisecond
	probationQueries = 20
)

// Config wires a Manager to its loader. The zero value of every field
// is usable.
type Config struct {
	// Load produces each new epoch's Searcher. Required for Reload.
	Load Loader
	// Fault, when non-nil, injects faults into the load path (tests).
	Fault *fault.Injector
	// Logf, when non-nil, receives reload lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Epoch is one immutable generation of graph+index. A request takes
// the pointer from Manager.Serving before touching the searcher
// (cache lookups keyed by epoch included) and uses that one pointer
// until the response — the whole stream, not just the first byte — is
// done; a swap or rollback in between changes what the manager hands
// out next, never what an Epoch already handed out answers with.
type Epoch struct {
	id       int64
	searcher *commdb.Searcher
	source   string
	started  time.Time
}

// ID is the epoch's monotonically increasing number. It appears in
// responses, traces, and metrics; a client that sees two different IDs
// inside one streamed response has found a cross-epoch mixing bug.
func (e *Epoch) ID() int64 { return e.id }

// Searcher is the epoch's engine.
func (e *Epoch) Searcher() *commdb.Searcher { return e.searcher }

// Manager owns the current epoch and runs the reload state machine.
// All methods are safe for concurrent use.
type Manager struct {
	cfg Config

	cur atomic.Pointer[Epoch]

	// mu serializes reloads, rollbacks and commits — the transitions
	// that touch prev and the current pointer together.
	mu        sync.Mutex
	prev      *Epoch // kept alive during the current epoch's probation
	nextID    int64
	reloading atomic.Bool

	// probMu guards the probation window. Lock order: mu before probMu;
	// paths holding only probMu must release it before taking mu.
	probMu        sync.Mutex
	probActive    bool
	probEpoch     int64
	probRemaining int

	// statMu guards the outcome counters and last-reload record.
	statMu      sync.Mutex
	counts      map[string]int64
	lastOutcome string
	lastError   string
	lastAt      time.Time
}

// New returns a manager serving initial as epoch 1.
func New(initial *commdb.Searcher, cfg Config) *Manager {
	m := &Manager{cfg: cfg, nextID: 2, counts: make(map[string]int64, len(Outcomes))}
	m.cur.Store(&Epoch{id: 1, searcher: initial, source: "initial", started: time.Now()})
	return m
}

// Serving returns the epoch a request admitted now answers from.
func (m *Manager) Serving() *Epoch { return m.cur.Load() }

// Current returns the serving epoch's ID.
func (m *Manager) Current() int64 { return m.cur.Load().id }

// record counts an outcome and remembers the last reload's result.
func (m *Manager) record(outcome string, err error) {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	m.counts[outcome]++
	m.lastOutcome = outcome
	m.lastAt = time.Now()
	if err != nil {
		m.lastError = err.Error()
	} else {
		m.lastError = ""
	}
}

// Counts snapshots the per-outcome reload counters, with every outcome
// present (zero if it never happened).
func (m *Manager) Counts() map[string]int64 {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	out := make(map[string]int64, len(Outcomes))
	for _, o := range Outcomes {
		out[o] = m.counts[o]
	}
	return out
}

// Status is the /statsz epoch block.
type Status struct {
	// Epoch is the serving epoch's ID.
	Epoch int64 `json:"epoch"`
	// Source describes where the serving epoch came from.
	Source string `json:"source"`
	// StartedAt is when the serving epoch took over.
	StartedAt time.Time `json:"started_at"`
	// PrevEpoch is the previous epoch's ID while it is retained for
	// rollback (0 once committed).
	PrevEpoch int64 `json:"prev_epoch,omitempty"`
	// Probation reports whether the serving epoch is still on probation.
	Probation bool `json:"probation"`
	// ProbationRemaining is how many clean queries remain before commit.
	ProbationRemaining int `json:"probation_remaining,omitempty"`
	// Reloads counts reload attempts by outcome.
	Reloads map[string]int64 `json:"reloads"`
	// LastOutcome, LastError, LastAt describe the most recent attempt.
	LastOutcome string    `json:"last_outcome,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	LastAt      time.Time `json:"last_at,omitzero"`
}

// Status snapshots the manager for /statsz.
func (m *Manager) Status() Status {
	e := m.cur.Load()
	st := Status{
		Epoch:     e.id,
		Source:    e.source,
		StartedAt: e.started,
		Reloads:   m.Counts(),
	}
	m.probMu.Lock()
	if m.probActive && m.probEpoch == e.id {
		st.Probation = true
		st.ProbationRemaining = m.probRemaining
	}
	m.probMu.Unlock()
	m.mu.Lock()
	if m.prev != nil {
		st.PrevEpoch = m.prev.id
	}
	m.mu.Unlock()
	m.statMu.Lock()
	st.LastOutcome, st.LastError, st.LastAt = m.lastOutcome, m.lastError, m.lastAt
	m.statMu.Unlock()
	return st
}

// LiveEpochs returns every epoch the manager points at: the serving
// epoch and, during a probation window, the retained previous epoch
// (current first). Read under mu, so the pair is one consistent state
// of the reload machine.
func (m *Manager) LiveEpochs() []*Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []*Epoch{m.cur.Load()}
	if m.prev != nil {
		out = append(out, m.prev)
	}
	return out
}

// loadOnce runs the loader with panic containment: a panic anywhere in
// the load path becomes ErrLoadPanic instead of killing the process.
func (m *Manager) loadOnce() (s *commdb.Searcher, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("%w: %v", ErrLoadPanic, p)
		}
	}()
	if err := m.cfg.Fault.Op(fault.PointLoad); err != nil {
		return nil, err
	}
	return m.cfg.Load(m.cfg.Fault)
}

// permanent reports whether a load error can never succeed on retry:
// corruption and mismatch are properties of the artifact, a panic is a
// bug. Everything else (missing file, device error, injected transient)
// is worth the loadRetries retries.
func permanent(err error) bool {
	return errors.Is(err, index.ErrCorruptIndex) ||
		errors.Is(err, commdb.ErrCorruptGraph) ||
		errors.Is(err, index.ErrIndexMismatch) ||
		errors.Is(err, ErrLoadPanic)
}

// classify maps a final load error to its reload outcome.
func classify(err error) string {
	switch {
	case errors.Is(err, index.ErrCorruptIndex), errors.Is(err, commdb.ErrCorruptGraph):
		return OutcomeRejectedCorrupt
	case errors.Is(err, ErrLoadPanic):
		return OutcomeRejectedPanic
	case errors.Is(err, index.ErrIndexMismatch):
		return OutcomeRejectedValidation
	default:
		return OutcomeRejectedIO
	}
}

// Reload loads a new epoch and, if every gate passes, swaps it in as
// the serving epoch with a fresh probation window. On any failure the
// current epoch keeps serving and the outcome is recorded; the
// returned outcome is one of the Outcome constants. Reloads serialize;
// a Reload arriving while another runs fails fast with
// ErrReloadInFlight rather than queueing (the competing reload is
// already loading newer data).
func (m *Manager) Reload(ctx context.Context) (string, error) {
	if m.cfg.Load == nil {
		err := errors.New("snapshot: no loader configured")
		m.record(OutcomeRejectedValidation, err)
		return OutcomeRejectedValidation, err
	}
	if !m.reloading.CompareAndSwap(false, true) {
		return "", ErrReloadInFlight
	}
	defer m.reloading.Store(false)
	m.mu.Lock()
	defer m.mu.Unlock()

	// A reload during probation adjudicates it: the operator is moving
	// forward, so the probationary epoch is accepted and prev dropped.
	m.probMu.Lock()
	superseded := m.probActive
	m.probActive = false
	m.probMu.Unlock()
	if superseded {
		m.dropPrevLocked("superseded by new reload")
	}

	var s *commdb.Searcher
	var err error
	backoff := loadBackoff
	for attempt := 0; ; attempt++ {
		s, err = m.loadOnce()
		if err == nil || permanent(err) || attempt >= loadRetries {
			break
		}
		m.cfg.logf("snapshot: transient load failure (attempt %d/%d), retrying in %v: %v",
			attempt+1, loadRetries+1, backoff, err)
		select {
		case <-ctx.Done():
			err = fmt.Errorf("snapshot: reload canceled: %w", ctx.Err())
			m.record(OutcomeRejectedIO, err)
			return OutcomeRejectedIO, err
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	if err != nil {
		outcome := classify(err)
		m.record(outcome, err)
		m.cfg.logf("snapshot: reload rejected (%s), epoch %d keeps serving: %v",
			outcome, m.cur.Load().id, err)
		return outcome, err
	}

	// Validation gate: the replacement must serve at least the query
	// radius the current epoch does, or queries that worked a second ago
	// would start failing after the swap.
	cur := m.cur.Load()
	if cur.searcher.Indexed() && s.Indexed() && s.IndexRadius() < cur.searcher.IndexRadius() {
		err := fmt.Errorf("snapshot: new index radius %v below serving radius %v",
			s.IndexRadius(), cur.searcher.IndexRadius())
		m.record(OutcomeRejectedValidation, err)
		m.cfg.logf("snapshot: %v; epoch %d keeps serving", err, cur.id)
		return OutcomeRejectedValidation, err
	}

	e := &Epoch{id: m.nextID, searcher: s, source: "reload", started: time.Now()}
	m.nextID++
	// The old epoch becomes prev: the rollback target while the new one
	// is on probation.
	old := m.cur.Swap(e)
	m.prev = old
	m.probMu.Lock()
	m.probActive = true
	m.probEpoch = e.id
	m.probRemaining = probationQueries
	m.probMu.Unlock()
	m.record(OutcomeSuccess, nil)
	m.cfg.logf("snapshot: epoch %d serving (probation: next %d queries), epoch %d retained for rollback",
		e.id, probationQueries, old.id)
	return OutcomeSuccess, nil
}

// dropPrevLocked forgets the previous epoch: its in-flight queries
// finish on it, then the collector frees it. Caller holds m.mu.
func (m *Manager) dropPrevLocked(why string) {
	if m.prev == nil {
		return
	}
	m.cfg.logf("snapshot: epoch %d released (%s)", m.prev.id, why)
	m.prev = nil
}

// rollback restores prev as the serving epoch if badEpoch is still
// serving. The bad epoch's in-flight queries complete on the epoch
// they started on, consistent to the last byte, just against data the
// manager no longer trusts.
func (m *Manager) rollback(badEpoch int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur.id != badEpoch || m.prev == nil {
		return // a later reload already superseded the bad epoch
	}
	restored := m.prev
	m.prev = nil
	m.cur.Store(restored)
	m.record(OutcomeRolledBack, fmt.Errorf("snapshot: epoch %d rolled back: internal error in probation", badEpoch))
	m.cfg.logf("snapshot: rolled back to epoch %d (internal error in probation); epoch %d draining", restored.id, badEpoch)
}

// ObserveQuery feeds the probation window: the serving layer reports
// each finished query's epoch and stop error. An internal error
// (commdb.ErrInternal — a recovered engine panic) inside the window
// rolls the new epoch back; a clean window commits it and drops prev.
func (m *Manager) ObserveQuery(epochID int64, err error) {
	m.probMu.Lock()
	if !m.probActive || epochID != m.probEpoch {
		m.probMu.Unlock()
		return
	}
	failed := errors.Is(err, commdb.ErrInternal)
	m.probRemaining--
	if !failed && m.probRemaining > 0 {
		m.probMu.Unlock()
		return
	}
	m.probActive = false
	m.probMu.Unlock() // before taking m.mu: lock order is mu → probMu
	if failed {
		m.rollback(epochID)
		return
	}
	m.mu.Lock()
	m.dropPrevLocked("probation passed")
	m.mu.Unlock()
}

// Watch polls path's mtime every interval and triggers Reload when it
// changes, until ctx is done. It returns the number of reloads it
// triggered. Watch tolerates the path briefly not existing (the window
// inside an atomic rename). A change counts as seen once its load
// succeeded or the artifact was rejected for good; a load that failed
// transiently past its retries, or lost the race to a SIGHUP or admin
// reload, is tried again on the next tick — otherwise the artifact
// would wait for some later publish to move the mtime again.
func (m *Manager) Watch(ctx context.Context, path string, interval time.Duration) int {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	var last time.Time
	if fi, err := os.Stat(path); err == nil {
		last = fi.ModTime()
	}
	reloads := 0
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return reloads
		case <-tick.C:
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		mt := fi.ModTime()
		if !mt.After(last) {
			continue
		}
		reloads++
		m.cfg.logf("snapshot: %s changed, reloading", path)
		outcome, err := m.Reload(ctx)
		if err != nil {
			m.cfg.logf("snapshot: watch-triggered reload failed: %v", err)
		}
		if outcome != OutcomeRejectedIO && !errors.Is(err, ErrReloadInFlight) {
			last = mt
		}
	}
}

// IndexFileLoader builds a Loader that attaches a serialized index at
// path to an existing graph — commserve's -index-file mode. Reads pass
// through fault.PointIndexRead.
func IndexFileLoader(g *commdb.Graph, path string, opts ...commdb.Option) Loader {
	return func(inj *fault.Injector) (*commdb.Searcher, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("snapshot: open index: %w", err)
		}
		defer f.Close()
		all := append([]commdb.Option{commdb.WithIndexReader(inj.Reader(fault.PointIndexRead, f))}, opts...)
		return commdb.Open(g, all...)
	}
}

// GraphFileLoader builds a Loader that re-reads the graph from
// graphPath and rebuilds the index in process for radius r (r <= 0
// skips indexing) — commserve's -graph + -index mode, where no index
// artifact exists on disk. Reads pass through fault.PointGraphRead.
func GraphFileLoader(graphPath string, r float64, opts ...commdb.Option) Loader {
	return func(inj *fault.Injector) (*commdb.Searcher, error) {
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, fmt.Errorf("snapshot: open graph: %w", err)
		}
		defer f.Close()
		g, err := commdb.ReadGraph(inj.Reader(fault.PointGraphRead, f))
		if err != nil {
			return nil, fmt.Errorf("snapshot: read graph: %w", err)
		}
		all := opts
		if r > 0 {
			all = append([]commdb.Option{commdb.WithIndex(r)}, opts...)
		}
		return commdb.Open(g, all...)
	}
}

// GraphIndexFileLoader builds a Loader that re-reads both artifacts —
// commserve's -graph + -index-file mode, the full production reload
// path. Both readers pass through their fault points.
func GraphIndexFileLoader(graphPath, indexPath string, opts ...commdb.Option) Loader {
	return func(inj *fault.Injector) (*commdb.Searcher, error) {
		gf, err := os.Open(graphPath)
		if err != nil {
			return nil, fmt.Errorf("snapshot: open graph: %w", err)
		}
		defer gf.Close()
		g, err := commdb.ReadGraph(inj.Reader(fault.PointGraphRead, gf))
		if err != nil {
			return nil, fmt.Errorf("snapshot: read graph: %w", err)
		}
		xf, err := os.Open(indexPath)
		if err != nil {
			return nil, fmt.Errorf("snapshot: open index: %w", err)
		}
		defer xf.Close()
		all := append([]commdb.Option{commdb.WithIndexReader(inj.Reader(fault.PointIndexRead, xf))}, opts...)
		return commdb.Open(g, all...)
	}
}
