// Package server exposes a Searcher over HTTP: a concurrent
// community-query service with admission control, result caching and
// streaming responses.
//
// Endpoints:
//
//   - POST /v1/search/topk — JSON body, JSON response with up to k
//     cost-ranked communities. Responses for cleanly completed queries
//     are cached in a size-bounded LRU keyed on the canonical query
//     fingerprint, and concurrent identical queries are coalesced so
//     the engine runs once.
//   - POST /v1/search/all — JSON body, NDJSON streaming response: one
//     community per line emitted at the enumerator's polynomial delay
//     (the first result arrives while enumeration continues), closed
//     by a trailer record carrying the completion status and stop
//     reason.
//   - GET /healthz — liveness.
//   - GET /statsz — serving counters and a query-latency histogram.
//
// The server is the backpressure boundary: a bounded worker pool with
// a bounded wait queue admits queries, everything beyond is rejected
// with 429 and Retry-After, and per-request resource limits are
// clamped to server maxima so no client can monopolize the governor
// budget. Shutdown stops admission, cancels in-flight queries through
// the query governor, and drains streams with a correct trailer.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commdb"
	"commdb/internal/delta"
	"commdb/internal/obs"
	"commdb/internal/prof"
	"commdb/internal/snapshot"
)

// ErrServerClosed is the cancellation cause propagated to every
// in-flight query when the server shuts down; it surfaces in stream
// trailers as "server shutting down".
var ErrServerClosed = errors.New("commserve: server shutting down")

// Config tunes the server. The zero value gets sensible defaults.
type Config struct {
	// MaxConcurrent bounds concurrently executing queries (default
	// GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 2×MaxConcurrent).
	MaxQueue int
	// QueueWait bounds how long an admitted request may wait for a
	// slot before being rejected (default 5s).
	QueueWait time.Duration
	// CacheEntries bounds the top-k result cache's entry count
	// (default 256; -1 disables the cache).
	CacheEntries int
	// CacheBytes bounds the cache's approximate resident bytes
	// (default 64 MiB, which 0 selects).
	CacheBytes int64
	// MaxLimits clamps every request's Limits field-by-field: where a
	// maximum is set, requests asking for more — or for unlimited —
	// get the maximum. The zero value leaves requests unclamped.
	MaxLimits commdb.Limits
	// Logger, when non-nil, receives one structured line per query with
	// the query ID that also rides the X-Query-Id response header and
	// the trace, tying logs, traces and metrics together — plus a
	// warning line for every emission-delay SLO breach. nil disables
	// request logging.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under GET /debug/pprof/ on the
	// server's handler, behind the admin token (403 with no token
	// configured, 401 on a bad one): heap and CPU captures expose
	// symbol names and allocation sites, so they are never served to
	// unauthenticated scrapers.
	Pprof bool
	// DeltaMem, when non-nil, reports the incremental maintainer's
	// artifact footprint (staging graph + index) in /debug/memz and the
	// commdb_mem_delta_bytes gauge.
	DeltaMem func() prof.Footprint
	// Snapshots, when non-nil, turns on epoch-versioned hot reload:
	// every request answers from the epoch that was serving when it
	// arrived (streams included), responses carry that epoch, reload
	// outcomes surface in /statsz and /metricsz, and POST /admin/reload
	// triggers a reload. An internal error during a fresh epoch's
	// probation rolls it back.
	Snapshots *snapshot.Manager
	// AdminToken authorizes POST /admin/reload (Bearer token). Empty
	// disables the endpoint (requests get 403), so reload-over-HTTP is
	// strictly opt-in.
	AdminToken string
	// Deltas, when non-nil, reports the incremental maintainer's
	// cumulative statistics (commserve's in-process delta mode). They
	// surface as the "deltas" block in /statsz and the commdb_delta_*
	// families in /metricsz.
	Deltas func() delta.Stats
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes == 0 && c.CacheEntries > 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

const (
	// maxBodyBytes bounds a request body.
	maxBodyBytes = 1 << 20
	// maxK caps the per-request k.
	maxK = 1000
	// retryAfterSeconds is the Retry-After hint on a 429.
	retryAfterSeconds = "1"
)

// Server serves community queries from one Engine. Create it with New
// or NewWithEngine, mount Handler on an http.Server, and call Shutdown
// to drain.
type Server struct {
	eng   Engine
	snaps *snapshot.Manager
	cfg   Config
	adm   *admission
	cache *resultCache
	// cacheEpoch tracks the last epoch a top-k request served from, so
	// an epoch change triggers one cache invalidation sweep.
	cacheEpoch atomic.Int64
	flights    *flightGroup
	stats      stats
	metrics    *metrics
	collector  obs.Collector
	qids       atomic.Int64
	mux        *http.ServeMux

	baseCtx    context.Context
	cancelBase context.CancelCauseFunc
	closing    atomic.Bool
	reqs       sync.WaitGroup
	shutdown   sync.Once
}

// New builds a server over a Searcher.
func New(s *commdb.Searcher, cfg Config) *Server {
	return NewWithEngine(searcherEngine{s: s}, cfg)
}

// NewWithEngine builds a server over any Engine; tests use it to
// inject controllable engines.
func NewWithEngine(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		eng:        eng,
		snaps:      cfg.Snapshots,
		cfg:        cfg,
		adm:        newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait),
		cache:      newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		flights:    newFlightGroup(baseCtx),
		baseCtx:    baseCtx,
		cancelBase: cancel,
	}
	s.metrics = newMetrics(s)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/search/all", s.handleAll)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	mux.HandleFunc("GET /debug/memz", s.handleMemz)
	if cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", s.admin(pprof.Index))
		mux.HandleFunc("GET /debug/pprof/cmdline", s.admin(pprof.Cmdline))
		mux.HandleFunc("GET /debug/pprof/profile", s.admin(pprof.Profile))
		mux.HandleFunc("GET /debug/pprof/symbol", s.admin(pprof.Symbol))
		mux.HandleFunc("GET /debug/pprof/trace", s.admin(pprof.Trace))
	}
	s.mux = mux
	return s
}

// nextQueryID issues the per-process query identifier that ties a
// request's log line, trace and X-Query-Id header together.
func (s *Server) nextQueryID() string {
	return "q-" + strconv.FormatInt(s.qids.Add(1), 10)
}

// logQuery emits the per-query structured log line, when logging is on.
func (s *Server) logQuery(qid, endpoint string, q commdb.Query, elapsed time.Duration, results int, reason string, cached bool) {
	if s.cfg.Logger == nil {
		return
	}
	s.cfg.Logger.Info("query",
		"qid", qid,
		"endpoint", endpoint,
		"keywords", q.Keywords,
		"rmax", q.Rmax,
		"elapsed_ms", elapsed.Milliseconds(),
		"results", results,
		"complete", reason == "",
		"reason", reason,
		"cached", cached)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// lease picks the epoch one request serves from: the fixed engine and
// epoch 0 without a snapshot manager, the serving epoch with one. The
// caller uses the returned engine for the whole response — a full
// NDJSON stream included — so a concurrent reload never changes what a
// response is answered from.
func (s *Server) lease() (eng Engine, epoch int64) {
	if s.snaps == nil {
		return s.eng, 0
	}
	e := s.snaps.Serving()
	return searcherEngine{s: e.Searcher()}, e.ID()
}

// Stats snapshots the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	cs := s.cache.Stats()
	snap.CacheHits = cs.Hits
	snap.CacheMisses = cs.Misses
	snap.CacheEntries = cs.Entries
	snap.CacheBytes = cs.Bytes
	snap.SingleflightShared = s.flights.joins.Load()
	snap.AdmissionWaiting = s.adm.waiting.Load()
	if s.snaps != nil {
		st := s.snaps.Status()
		snap.Epochs = &st
	}
	if s.cfg.Deltas != nil {
		st := s.cfg.Deltas()
		snap.Deltas = &st
	}
	snap.setLatency(s.metrics.latency)
	return snap
}

// authAdmin enforces the admin bearer token: with no token configured
// every admin request gets 403 (admin-over-HTTP is strictly opt-in);
// with one, a missing or wrong token gets 401. A false return means
// the response has been written. The compare is constant-time so the
// token can't be guessed byte-by-byte through response timing.
func (s *Server) authAdmin(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.AdminToken == "" {
		writeError(w, http.StatusForbidden, "admin endpoint disabled: no admin token configured")
		return false
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || auth[:len(prefix)] != prefix ||
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.cfg.AdminToken)) != 1 {
		writeError(w, http.StatusUnauthorized, "bad admin token")
		return false
	}
	return true
}

// admin wraps a handler behind authAdmin. pprof mounts through it;
// reload keeps its own snapshot-manager precondition ahead of the same
// check.
func (s *Server) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqs.Add(1)
		defer s.reqs.Done()
		if !s.authAdmin(w, r) {
			return
		}
		h(w, r)
	}
}

// handleReload answers POST /admin/reload: authenticated epoch reload.
// The endpoint requires both a snapshot manager and a configured admin
// token; with no token it answers 403 so reload-over-HTTP is opt-in.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add(1)
	defer s.reqs.Done()
	if s.snaps == nil {
		writeError(w, http.StatusNotImplemented, "snapshot reload not enabled")
		return
	}
	if !s.authAdmin(w, r) {
		return
	}
	outcome, err := s.snaps.Reload(r.Context())
	resp := ReloadResponse{Outcome: outcome, Epoch: s.snaps.Current()}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		if errors.Is(err, snapshot.ErrReloadInFlight) {
			status = http.StatusConflict
		} else {
			// The artifact was rejected; the prior epoch keeps serving.
			status = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, status, resp)
}

// Shutdown makes the server stop admitting (new requests get 503),
// cancels every in-flight query through the governor — streams drain
// promptly, each closing with a trailer naming the shutdown — and
// waits for all requests to finish or ctx to end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdown.Do(func() {
		s.closing.Store(true)
		s.cancelBase(ErrServerClosed)
	})
	done := make(chan struct{})
	go func() {
		s.reqs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requestCtx derives a context canceled by whichever comes first: the
// client going away or the server shutting down. The governor sees the
// precise cause either way.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(r.Context())
	stop := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	return ctx, func() {
		stop()
		cancel(nil)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// parseSearch decodes and validates a search request, returning the
// normalized query with clamped limits already attached. A false ok
// means the response has been written.
func (s *Server) parseSearch(w http.ResponseWriter, r *http.Request) (req SearchRequest, q commdb.Query, ok bool) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return req, q, false
	}
	q, err := req.Query()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return req, q, false
	}
	q.Limits = ClampLimits(req.Limits.Limits(), s.cfg.MaxLimits)
	return req, q, true
}

// admit runs the admission valve. A false ok means the response has
// been written (503 shutting down, 429 saturated, or nothing when the
// client is already gone); on true the caller must release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (ok bool) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return false
	}
	switch err := s.adm.acquire(ctx); {
	case err == nil:
		return true
	case errors.Is(err, ErrSaturated):
		s.writeSaturated(w)
		return false
	case errors.Is(err, ErrServerClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return false
	default: // client disconnected while queued
		return false
	}
}

// writeSaturated answers a request the admission valve rejected.
func (s *Server) writeSaturated(w http.ResponseWriter) {
	s.stats.admissionRejections.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeError(w, http.StatusTooManyRequests, "saturated: %d queries executing and %d queued; retry later",
		s.cfg.MaxConcurrent, s.cfg.MaxQueue)
}

// classifyStop feeds the stop-reason counters. A results-budget trip
// is ordinary completion of a bounded stream (the client asked for at
// most max_results), so it counts as a result-limit stop; only the
// work budgets and the deadline count as budget exhaustion. An engine
// refusing a malformed query is none of these.
func (s *Server) classifyStop(stopErr error) {
	var be commdb.ErrBudgetExhausted
	switch {
	case errors.As(stopErr, &be) && be.Resource == commdb.ResourceResults:
		s.stats.resultLimitStops.Add(1)
	case errors.As(stopErr, &be), errors.Is(stopErr, commdb.ErrDeadlineExceeded):
		s.stats.budgetExhausted.Add(1)
	case errors.Is(stopErr, commdb.ErrCanceled), errors.Is(stopErr, ErrServerClosed):
		s.stats.canceled.Add(1)
	}
}

// execution is what one engine run leaves behind for its handler.
type execution struct {
	results int
	// stop is why the run ended early: nil after a clean exhaustion or
	// when emit declined further communities.
	stop    error
	elapsed time.Duration
	sum     *obs.Summary
}

// execute is one engine execution, however it ends. It opens the query
// under a fresh trace stamped with the epoch, hands every community to
// emit until emit declines or the stream ends, and then closes the
// books exactly once: completed counter and latency, engine counters,
// stop-reason counters, the epoch's probation window and the capture
// ring. A non-nil error means the engine refused
// the query (a limit tripping during projection fails closed there);
// it is accounted like any other stop.
func (s *Server) execute(ctx context.Context, open func(context.Context, commdb.Query) (Stream, error), epoch int64, endpoint, qid string, q commdb.Query, k int, emit func(*commdb.Community) bool) (execution, error) {
	s.stats.queriesStarted.Add(1)
	tr := obs.NewTrace(qid)
	tr.SetEpoch(epoch)
	start := time.Now()
	var x execution
	st, err := open(obs.ContextWithTrace(ctx, tr), q)
	if err != nil {
		x.stop = err
	} else {
		for {
			c, ok := st.Next()
			if !ok {
				x.stop = st.Err()
				break
			}
			x.results++
			if !emit(c) {
				break
			}
		}
		// An abandoned stream (k reached) still has materialization
		// workers running; Close stops them and closes the enumerate span.
		st.Close()
	}
	x.elapsed = time.Since(start)
	s.stats.queriesCompleted.Add(1)
	s.metrics.totals.Fold(tr)
	s.classifyStop(x.stop)
	if s.snaps != nil {
		s.snaps.ObserveQuery(epoch, x.stop)
	}
	x.sum = tr.Summary()
	if x.sum.Fingerprint == "" {
		// The query never reached a searcher session (a fake test engine,
		// a refusal ahead of it): identity comes from the request.
		n := q.Normalized()
		x.sum.Fingerprint, x.sum.Keywords, x.sum.Rmax = n.Fingerprint(), n.Keywords, n.Rmax
	}
	rec := obs.NewQueryRecord(x.sum, obs.Serving{
		QueryID: qid, Endpoint: endpoint, K: k, Results: x.results,
		Stop: x.stop, StopReason: StopReason(x.stop), Start: start, Elapsed: x.elapsed,
	})
	s.metrics.latency[keywordBucket(len(rec.Keywords))].Observe(rec.TotalMS)
	// A breach is an alert — a counter, a slow-log capture and this
	// line — never a verdict on the epoch: an emission gap includes the
	// write to the client, so a slow reader can cause one.
	if s.collector.Observe(rec) && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("emission SLO breach",
			"qid", rec.QueryID,
			"endpoint", rec.Endpoint,
			"keywords", rec.Keywords,
			"max_delay_ms", rec.MaxEmissionDelayMS,
			"median_delay_ms", rec.MedianEmissionDelayMS,
			"total_ms", rec.TotalMS)
	}
	return x, err
}

// handleTopK answers POST /v1/search/topk: cache lookup, then a
// coalesced engine execution, then a JSON response.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add(1)
	defer s.reqs.Done()
	req, q, ok := s.parseSearch(w, r)
	if !ok {
		return
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	if k > maxK {
		k = maxK
	}
	qid := s.nextQueryID()
	w.Header().Set("X-Query-Id", qid)
	// One epoch for the whole request, cache lookup included: the epoch
	// is part of the cache key, so a stale epoch's answers can never
	// serve a request answered from a newer epoch.
	eng, epoch := s.lease()
	key := cacheKey{fingerprint: q.Fingerprint(), k: k, compact: req.Compact, epoch: epoch}
	// One invalidation sweep per observed epoch change frees the prior
	// epoch's answers promptly (the epoch inside every key already
	// prevents stale serving either way).
	if old := s.cacheEpoch.Swap(epoch); old != epoch {
		s.cache.DropOtherEpochs(epoch)
	}

	// Cache hits bypass admission: they consume no engine resources,
	// so they stay fast even when the pool is saturated. A trace
	// request bypasses the cache read instead — its trace must reflect
	// a real execution.
	if !req.Trace {
		if val, hit := s.cache.Get(key); hit {
			s.logQuery(qid, "topk", q, 0, len(val.Records), "", true)
			writeJSON(w, http.StatusOK, TopKResponse{Results: val.Records, Complete: val.Complete,
				Cached: true, Epoch: epoch})
			return
		}
	}

	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// Coalesce before admitting: followers of an identical in-flight
	// query consume no engine resources, so only the flight leader
	// claims an execution slot. Admission errors (saturation,
	// shutdown) propagate to every waiter of the flight. Trace
	// requests coalesce only among themselves, so a trace follower is
	// guaranteed a leader that produced one.
	fkey := flightKey{cacheKey: key, trace: req.Trace}
	start := time.Now()
	val, _, err := s.flights.Do(ctx, fkey, func(fctx context.Context) (*CachedAnswer, error) {
		if err := s.adm.acquire(fctx); err != nil {
			return nil, err
		}
		defer s.adm.release()
		return s.runTopK(fctx, eng, epoch, q, k, req.Compact, key, qid)
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrSaturated):
			s.writeSaturated(w)
		case errors.Is(err, ErrServerClosed):
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
		case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
			// Client gone; nothing useful to write.
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	resp := TopKResponse{
		Results:   val.Records,
		Complete:  val.Complete,
		Reason:    val.Reason,
		Cached:    false,
		ElapsedMS: time.Since(start).Milliseconds(),
		Epoch:     epoch,
	}
	if req.Trace {
		resp.Trace = val.Trace
	}
	s.logQuery(qid, "topk", q, time.Since(start), len(val.Records), val.Reason, false)
	writeJSON(w, http.StatusOK, resp)
}

// runTopK is one engine execution of a top-k query: collect up to k
// records and cache the answer when the enumeration completed cleanly.
// The execution's trace summary rides the answer, for the waiters that
// asked to see it.
func (s *Server) runTopK(ctx context.Context, eng Engine, epoch int64, q commdb.Query, k int, compact bool, key cacheKey, qid string) (*CachedAnswer, error) {
	g := eng.Graph()
	records := make([]CommunityRecord, 0, k)
	x, err := s.execute(ctx, eng.TopK, epoch, "topk", qid, q, k, func(c *commdb.Community) bool {
		records = append(records, NewRecord(len(records)+1, c, g, compact))
		return len(records) < k
	})
	if err != nil {
		return nil, err
	}
	val := &CachedAnswer{
		Records:  records,
		Complete: x.stop == nil,
		Reason:   StopReason(x.stop),
		Bytes:    sizeOf(records),
		Trace:    x.sum,
	}
	s.cache.Put(key, val)
	return val, nil
}

// handleAll answers POST /v1/search/all with an NDJSON stream: one
// community per line, flushed as produced, then a trailer.
func (s *Server) handleAll(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add(1)
	defer s.reqs.Done()
	req, q, ok := s.parseSearch(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.release()

	qid := s.nextQueryID()
	w.Header().Set("X-Query-Id", qid)
	// One epoch for the entire stream: every record and the trailer
	// come from it, even if a reload lands mid-stream.
	eng, epoch := s.lease()
	s.stats.streamsStarted.Add(1)

	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	g := eng.Graph()
	// The stream's headers go out with its first line (a record or the
	// trailer), once the engine has accepted the query.
	begun := false
	begin := func() {
		if !begun {
			begun = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
			w.WriteHeader(http.StatusOK)
		}
	}
	n := 0
	x, err := s.execute(ctx, eng.All, epoch, "all", qid, q, 0, func(c *commdb.Community) bool {
		begin()
		n++
		if err := enc.Encode(NewRecord(n, c, g, req.Compact)); err != nil {
			// Client gone mid-stream: stop enumerating.
			cancel()
			return false
		}
		flush()
		return true
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	begin()
	trailer := NewTrailer(x.results, x.stop, x.elapsed)
	trailer.Epoch = epoch
	if req.Trace {
		trailer.Trace = x.sum
	}
	s.logQuery(qid, "all", q, x.elapsed, x.results, trailer.Reason, false)
	_ = enc.Encode(trailer)
	flush()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.closing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
