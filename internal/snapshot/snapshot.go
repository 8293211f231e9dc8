// Package snapshot gives a serving process epoch-versioned hot reload
// of its graph+index: a running server atomically swaps in a freshly
// loaded Searcher while every in-flight query — including long NDJSON
// streams — finishes on the epoch it started on, with refcounted
// retirement of the old epoch once its last query drains.
//
// Loading is fail-closed. A reload that fails for any reason —
// corrupt or truncated artifact, wrong-graph index, I/O error, panic
// inside the loader — leaves the current epoch serving untouched and
// records the rejection; transient I/O errors are retried a bounded
// number of times with doubling backoff, while corruption and
// validation failures are permanent and fail immediately. After a
// successful swap the new epoch serves on probation: if its first
// queries hit internal errors or the SLO watchdog fires, the manager
// rolls back to the previous epoch, which is kept alive (one slot
// reference) until probation passes.
//
// Epoch lifecycle:
//
//	          Reload ok                 probation passes
//	serving ───────────► probation ───────────────────► committed
//	   ▲  ▲                  │                        (prev released)
//	   │  │ load fails       │ ErrInternal ≥ N, or SLO breach
//	   │  └──(no change)     ▼
//	   └──────────────── rolled back (prev restored, new epoch drains)
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

// Config tunes a Manager. The zero value of every field is usable.
type Config struct {
	// Load produces each new epoch's Searcher. Required for Reload.
	Load Loader
	// Fault, when non-nil, injects faults into the load path (tests).
	Fault *fault.Injector
	// Retries bounds re-attempts after transient I/O errors (default 2).
	// Corruption, validation failures, and panics never retry.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Probation is how many queries the new epoch must serve cleanly
	// before the previous epoch is released (default 20).
	Probation int
	// ProbationFailures is how many internal errors within probation
	// trigger rollback (default 1).
	ProbationFailures int
	// Logf, when non-nil, receives reload lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c *Config) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 50 * time.Millisecond
	}
	return c.Backoff
}

func (c *Config) probation() int {
	if c.Probation <= 0 {
		return 20
	}
	return c.Probation
}

func (c *Config) probationFailures() int {
	if c.ProbationFailures <= 0 {
		return 1
	}
	return c.ProbationFailures
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Epoch is one immutable generation of graph+index. Queries hold it
// through a Lease; the manager holds one slot reference while the
// epoch is current (and, during probation, while it is previous), so
// refs hitting zero means no query can ever see it again.
type Epoch struct {
	id       int64
	searcher *commdb.Searcher
	source   string
	started  time.Time
	refs     atomic.Int64
}

// ID is the epoch's monotonically increasing number. It appears in
// responses, traces, and metrics; a client that sees two different IDs
// inside one streamed response has found a cross-epoch mixing bug.
func (e *Epoch) ID() int64 { return e.id }

// Searcher is the epoch's engine.
func (e *Epoch) Searcher() *commdb.Searcher { return e.searcher }

// acquire takes a query reference; it fails only when the epoch is
// already fully drained (refs hit zero), which a current epoch never is
// because the manager's slot reference pins it.
func (e *Epoch) acquire() bool {
	for {
		n := e.refs.Load()
		if n <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (e *Epoch) release() {
	if e.refs.Add(-1) < 0 {
		panic("snapshot: epoch over-released")
	}
}

// Lease pins one epoch for the duration of one query. Acquire before
// touching the searcher (including cache lookups keyed by epoch) and
// Release when the response — the whole stream, not just the first
// byte — is done. Release is idempotent.
type Lease struct {
	e        *Epoch
	released atomic.Bool
}

// Epoch is the leased epoch's ID.
func (l *Lease) Epoch() int64 { return l.e.id }

// Searcher is the leased epoch's engine, valid until Release.
func (l *Lease) Searcher() *commdb.Searcher { return l.e.searcher }

// Release returns the query reference. Idempotent.
func (l *Lease) Release() {
	if l.released.CompareAndSwap(false, true) {
		l.e.release()
	}
}

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
	probFailures  int

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
	e := &Epoch{id: 1, searcher: initial, source: "initial", started: time.Now()}
	e.refs.Store(1) // the manager's slot reference
	m.cur.Store(e)
	return m
}

// Acquire leases the current epoch. It always succeeds: the manager's
// slot reference keeps the current epoch acquirable, and the retry
// loop covers the instant where a swap retires the epoch between the
// load and the acquire.
func (m *Manager) Acquire() *Lease {
	for {
		e := m.cur.Load()
		if e.acquire() {
			return &Lease{e: e}
		}
	}
}

// Current returns the current epoch's ID without leasing it.
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
	// ActiveLeases counts queries currently pinned to the serving epoch.
	ActiveLeases int64 `json:"active_leases"`
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
		// refs includes the slot reference; leases are the rest.
		ActiveLeases: e.refs.Load() - 1,
		Reloads:      m.Counts(),
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

// LiveEpochs leases every epoch the manager is keeping alive: the
// serving epoch and, during a probation window, the retained previous
// epoch (current first). Taking the leases under mu — the lock every
// transition that moves the slot references holds — means both
// acquires hit epochs whose slot reference is still in place, so the
// refcount can never race to zero mid-acquire. Callers walk the
// searchers (e.g. to compute per-epoch memory footprints for
// /debug/memz) after this returns and must Release every lease.
func (m *Manager) LiveEpochs() []*Lease {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Lease, 0, 2)
	if cur := m.cur.Load(); cur.acquire() {
		out = append(out, &Lease{e: cur})
	}
	if m.prev != nil && m.prev.acquire() {
		out = append(out, &Lease{e: m.prev})
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
// is worth the configured retries.
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
	// forward, so the probationary epoch is accepted and prev released.
	m.probMu.Lock()
	if m.probActive {
		m.probActive = false
		m.probMu.Unlock()
		m.finalizePrevLocked("superseded by new reload")
	} else {
		m.probMu.Unlock()
	}

	var s *commdb.Searcher
	var err error
	backoff := m.cfg.backoff()
	for attempt := 0; ; attempt++ {
		s, err = m.loadOnce()
		if err == nil || permanent(err) || attempt >= m.cfg.retries() {
			break
		}
		m.cfg.logf("snapshot: transient load failure (attempt %d/%d), retrying in %v: %v",
			attempt+1, m.cfg.retries()+1, backoff, err)
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
	e.refs.Store(1)
	old := m.cur.Swap(e)
	// old keeps its slot reference and becomes prev: the rollback target
	// while the new epoch is on probation.
	m.prev = old
	m.probMu.Lock()
	m.probActive = true
	m.probEpoch = e.id
	m.probRemaining = m.cfg.probation()
	m.probFailures = 0
	m.probMu.Unlock()
	m.record(OutcomeSuccess, nil)
	m.cfg.logf("snapshot: epoch %d serving (probation: next %d queries), epoch %d retained for rollback",
		e.id, m.cfg.probation(), old.id)
	return OutcomeSuccess, nil
}

// finalizePrevLocked drops the previous epoch's slot reference,
// letting it drain. Caller holds m.mu.
func (m *Manager) finalizePrevLocked(why string) {
	if m.prev == nil {
		return
	}
	m.cfg.logf("snapshot: epoch %d released (%s)", m.prev.id, why)
	m.prev.release()
	m.prev = nil
}

// rollback restores prev as the serving epoch if badEpoch is still
// serving. The bad epoch loses its slot reference and drains as its
// in-flight queries finish — they complete on the epoch they started
// on, consistent to the last byte, just against data the manager no
// longer trusts.
func (m *Manager) rollback(badEpoch int64, why string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur.id != badEpoch || m.prev == nil {
		return // a later reload already superseded the bad epoch
	}
	restored := m.prev
	m.prev = nil
	m.cur.Store(restored)
	cur.release() // drop the bad epoch's slot reference
	m.record(OutcomeRolledBack, fmt.Errorf("snapshot: epoch %d rolled back: %s", badEpoch, why))
	m.cfg.logf("snapshot: rolled back to epoch %d (%s); epoch %d draining", restored.id, why, badEpoch)
}

// ObserveQuery feeds the probation window: the serving layer reports
// each finished query's epoch and stop error. Internal errors
// (commdb.ErrInternal — recovered engine panics) count against the new
// epoch; enough of them trigger rollback, and a clean window commits
// the epoch and releases prev.
func (m *Manager) ObserveQuery(epochID int64, err error) {
	m.probMu.Lock()
	if !m.probActive || epochID != m.probEpoch {
		m.probMu.Unlock()
		return
	}
	if err != nil && errors.Is(err, commdb.ErrInternal) {
		m.probFailures++
	}
	m.probRemaining--
	if m.probFailures >= m.cfg.probationFailures() {
		bad := m.probEpoch
		m.probActive = false
		m.probMu.Unlock() // before taking m.mu: lock order is mu → probMu
		m.rollback(bad, fmt.Sprintf("%d internal errors in probation", m.cfg.probationFailures()))
		return
	}
	if m.probRemaining <= 0 {
		m.probActive = false
		m.probMu.Unlock()
		m.mu.Lock()
		m.finalizePrevLocked("probation passed")
		m.mu.Unlock()
		return
	}
	m.probMu.Unlock()
}

// NoteBreach reports an SLO watchdog breach. During probation it rolls
// the new epoch back; outside probation it is ignored (the watchdog
// already alerts through the collector).
func (m *Manager) NoteBreach() {
	m.probMu.Lock()
	if !m.probActive {
		m.probMu.Unlock()
		return
	}
	bad := m.probEpoch
	m.probActive = false
	m.probMu.Unlock()
	m.rollback(bad, "SLO watchdog breach in probation")
}

// Watch polls path's mtime every interval and triggers Reload when it
// changes, until ctx is done. It returns the number of reloads it
// triggered. Watch tolerates the path briefly not existing (the window
// inside an atomic rename).
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
		if mt := fi.ModTime(); mt.After(last) {
			last = mt
			reloads++
			m.cfg.logf("snapshot: %s changed, reloading", path)
			if _, err := m.Reload(ctx); err != nil && !errors.Is(err, ErrReloadInFlight) {
				m.cfg.logf("snapshot: watch-triggered reload failed: %v", err)
			}
		}
	}
}

// IndexFileLoader builds a Loader that attaches a serialized index at
// path to an existing graph — the REPL's `reload` and commserve's
// -index-file mode. Reads pass through fault.PointIndexRead.
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
