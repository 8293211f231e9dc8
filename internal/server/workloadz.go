package server

// GET /debug/workloadz is the flight recorder's read side: the full
// hot-keyword and query-class attribution tables plus the journal's
// counters when durable recording is on. Where /debug/queries answers
// "what were the slowest queries", workloadz answers "which keywords
// is this workload paying engine-init for" — the ranking a keyword
// warm-up feeds on.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"commdb"
	"commdb/internal/obs"
	"commdb/internal/workload"
)

// workloadzTopN bounds the table rows one /debug/workloadz response
// carries.
const workloadzTopN = 50

// handleWorkloadz answers GET /debug/workloadz: a human-readable table
// by default, the machine-readable snapshot with ?format=json. The
// JSON form is the contract automation consumes (the kwcache warmer,
// the CI workload smoke test); anything else in the format parameter
// is rejected rather than silently served as text.
func (s *Server) handleWorkloadz(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "json":
		writeJSON(w, http.StatusOK, s.wl.Snapshot(workloadzTopN))
	case "", "text":
		snap := s.wl.Snapshot(workloadzTopN)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "workload: %d observed, %d cache-absorbed, %d keywords tracked (%d evicted)\n\n",
			snap.Observed, snap.CacheAbsorbed, snap.TrackedKeywords, snap.EvictedKeywords)
		fmt.Fprintf(w, "%-24s %10s %10s %10s %12s %12s\n",
			"TERM", "QUERIES", "CACHEHITS", "INITRUNS", "INITVISITS", "INITWALLMS")
		for _, ks := range snap.HotKeywords {
			fmt.Fprintf(w, "%-24s %10d %10d %10d %12d %12.2f\n",
				ks.Term, ks.Queries, ks.CacheHits, ks.InitRuns, ks.InitVisits, ks.InitWallMS)
		}
		fmt.Fprintf(w, "\n%-24s %10s %10s %10s %12s %12s %12s\n",
			"CLASS", "QUERIES", "CACHEHITS", "RESULTS", "TOTALMS", "INITMS", "SHAREDMS")
		for _, cs := range snap.Classes {
			fmt.Fprintf(w, "%-24s %10d %10d %10d %12.2f %12.2f %12.2f\n",
				cs.Class, cs.Queries, cs.CacheHits, cs.Results, cs.TotalMS, cs.InitMS, cs.SharedInitMS)
		}
		if j := snap.Journal; j != nil {
			fmt.Fprintf(w, "\njournal: %s — %d records, %d sampled out, %d rotations, %d bytes\n",
				j.Path, j.Records, j.SampledOut, j.Rotations, j.Bytes)
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or text)", r.URL.Query().Get("format"))
	}
}

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

// observeWorkload feeds one executed query into the workload tracker:
// attribution tables always, the journal when recording is on. The
// epoch rides the trace's label (set only under hot reload).
func (s *Server) observeWorkload(rec *obs.QueryRecord, q commdb.Query, algo string) {
	e := workload.EntryFromRecord(rec)
	e.Algo = algo
	e.Cost = q.Ranker.Name()
	e.Limits = entryLimits(q.Limits)
	if tr := rec.Trace; tr != nil {
		if ep := tr.Labels["epoch"]; ep != "" {
			e.Epoch, _ = strconv.ParseInt(ep, 10, 64)
		}
	}
	s.wl.Observe(e)
}

// observeCacheHit records a query the result cache absorbed: no engine
// execution and no init spend, but the hit still belongs to the
// workload — a replay that skipped it would re-run the engine work the
// cache saved. Indexedness comes from the cached execution's trace.
func (s *Server) observeCacheHit(qid string, q commdb.Query, key cacheKey, val *CachedAnswer, elapsed time.Duration) {
	e := workload.Entry{
		UnixMS:      time.Now().UnixMilli(),
		QueryID:     qid,
		Fingerprint: key.fingerprint,
		Keywords:    q.Keywords,
		Rmax:        q.Rmax,
		Cost:        q.Ranker.Name(),
		Algo:        workload.AlgoTopK,
		K:           key.k,
		Limits:      entryLimits(q.Limits),
		Epoch:       key.epoch,
		CacheHit:    true,
		Results:     len(val.Records),
		Complete:    val.Complete,
		StopReason:  val.Reason,
		LatencyMS:   float64(elapsed) / float64(time.Millisecond),
	}
	if val.Trace != nil {
		e.Indexed = val.Trace.Labels["projected"] == "true"
	}
	s.wl.Observe(e)
}
