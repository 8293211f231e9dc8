package server

// The write side of the workload flight recorder: every completed
// query — engine executions and cache hits alike — is offered to the
// configured journal (Config.WorkloadJournal); without one both hooks
// return at once.

import (
	"time"

	"commdb"
	"commdb/internal/obs"
	"commdb/internal/workload"
)

// entryLimits converts effective (clamped) engine limits to the
// journal's wire form; nil when no limit is set.
func entryLimits(l commdb.Limits) *workload.Limits {
	wl := workload.Limits{
		TimeoutMS:       l.Timeout.Milliseconds(),
		MaxRelaxations:  l.MaxRelaxations,
		MaxNeighborRuns: l.MaxNeighborRuns,
		MaxCanTuples:    l.MaxCanTuples,
		MaxHeapBytes:    l.MaxHeapBytes,
		MaxResults:      l.MaxResults,
	}
	if wl.IsZero() {
		return nil
	}
	return &wl
}

// observeWorkload journals one executed query.
func (s *Server) observeWorkload(rec *obs.QueryRecord, q commdb.Query, algo string) {
	if s.cfg.WorkloadJournal == nil {
		return
	}
	e := workload.EntryFromRecord(rec)
	e.Algo = algo
	e.Cost = q.Ranker.Name()
	e.Limits = entryLimits(q.Limits)
	s.cfg.WorkloadJournal.Offer(e)
}

// observeCacheHit journals a query the result cache absorbed: no engine
// execution, but the hit still belongs to the workload — a replay that
// skipped it would re-run the engine work the cache saved. Identity
// comes from the cached execution's trace.
func (s *Server) observeCacheHit(qid string, q commdb.Query, key cacheKey, val *CachedAnswer, elapsed time.Duration) {
	if s.cfg.WorkloadJournal == nil {
		return
	}
	e := workload.Entry{
		UnixMS:      time.Now().UnixMilli(),
		QueryID:     qid,
		Fingerprint: key.fingerprint,
		Keywords:    val.Trace.Keywords,
		Rmax:        q.Rmax,
		Cost:        q.Ranker.Name(),
		Algo:        workload.AlgoTopK,
		K:           key.k,
		Limits:      entryLimits(q.Limits),
		Epoch:       key.epoch,
		Indexed:     val.Trace.Indexed,
		CacheHit:    true,
		Results:     len(val.Records),
		Complete:    val.Complete,
		StopReason:  val.Reason,
		LatencyMS:   float64(elapsed) / float64(time.Millisecond),
	}
	s.cfg.WorkloadJournal.Offer(e)
}
