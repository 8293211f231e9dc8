// Package workload is the flight recorder of the serving stack: a
// durable, size-bounded NDJSON journal of completed queries that
// cmd/benchrunner -replay re-executes deterministically.
//
// One Entry per completed query (cache hits included), one JSON object
// per line, framed by internal/seqlog — the same sequence number and
// CRC the internal/delta mutation log carries — so a reader can prove
// integrity; a torn final line — the normal result of a crash
// mid-append — is silently dropped on read. The journal rotates once,
// keeping the current file plus one predecessor (path + ".1"), and
// supports a deterministic 1-in-M sampling policy so high-QPS servers
// bound the recording cost.
package workload

import (
	"encoding/json"
	"fmt"

	"commdb/internal/obs"
	"commdb/internal/seqlog"
)

// Limits is the wire form of a query's resource limits, mirroring the
// server's LimitsSpec JSON schema so journal entries and search
// requests stay field-compatible without an import cycle.
type Limits struct {
	TimeoutMS       int64 `json:"timeout_ms,omitempty"`
	MaxRelaxations  int64 `json:"max_relaxations,omitempty"`
	MaxNeighborRuns int64 `json:"max_neighbor_runs,omitempty"`
	MaxCanTuples    int64 `json:"max_can_tuples,omitempty"`
	MaxHeapBytes    int64 `json:"max_heap_bytes,omitempty"`
	MaxResults      int64 `json:"max_results,omitempty"`
}

// IsZero reports whether no limit is set.
func (l Limits) IsZero() bool { return l == Limits{} }

// Algo values for Entry.Algo: which endpoint/enumerator served the
// query.
const (
	AlgoTopK = "topk"
	AlgoAll  = "all"
)

// Entry is one journal record: the query's identity (canonical
// fingerprint, keywords, operating point), how it was served and its
// outcome. Unknown fields on a line are ignored on read, so journals
// written by releases that recorded more (keyword_init) still replay.
type Entry struct {
	// Seq is the journal-assigned sequence number; on the wire it rides
	// the line's seqlog frame.
	Seq int64 `json:"-"`
	// UnixMS is the query's completion time. Synthetic workloads (the
	// benchmark's canonical journal) use fixed values so journal bytes
	// are machine-independent.
	UnixMS  int64  `json:"unix_ms"`
	QueryID string `json:"qid,omitempty"`
	// Fingerprint is the canonical query fingerprint (Query.Fingerprint):
	// normalized keywords, rmax and cost function, limits excluded.
	Fingerprint string   `json:"fp"`
	Keywords    []string `json:"keywords"`
	Rmax        float64  `json:"rmax"`
	// Cost is the ranking aggregate: "sum" or "max".
	Cost string `json:"cost,omitempty"`
	// Algo is the serving endpoint: "topk" or "all".
	Algo string `json:"algo"`
	// K is the top-k bound (0 for COMM-all).
	K int `json:"k,omitempty"`
	// Limits are the request's effective (clamped) resource limits.
	Limits *Limits `json:"limits,omitempty"`
	// Epoch is the snapshot epoch that answered (0 without hot reload).
	Epoch int64 `json:"epoch,omitempty"`
	// Indexed reports whether the query ran through the inverted-index
	// projection.
	Indexed bool `json:"indexed,omitempty"`
	// CacheHit marks queries absorbed by the result cache: no engine
	// execution, no init spend.
	CacheHit bool `json:"cache_hit,omitempty"`
	Results  int  `json:"results"`
	Complete bool `json:"complete"`
	// StopReason is the stop reason when Complete is false.
	StopReason string  `json:"stop,omitempty"`
	LatencyMS  float64 `json:"latency_ms"`
	// InitMS is the engine_init span: total engine construction time.
	InitMS float64 `json:"init_ms,omitempty"`
}

// EncodeEntry renders e as one journal line (no trailing newline).
func EncodeEntry(e Entry) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return seqlog.Seal(b, e.Seq), nil
}

// entryOf parses one verified journal object.
func entryOf(obj []byte, seq int64) (Entry, error) {
	e := Entry{Seq: seq}
	if err := json.Unmarshal(obj, &e); err != nil {
		return e, fmt.Errorf("workload: undecodable record: %v", err)
	}
	return e, nil
}

// EntryFromRecord projects one executed query's capture record onto
// the journal: identity, epoch, outcome and latency. The caller fills
// what the record does not know — Algo, Cost, Limits — and the journal
// assigns Seq.
func EntryFromRecord(rec *obs.QueryRecord) Entry {
	e := Entry{
		QueryID:     rec.QueryID,
		Fingerprint: rec.Fingerprint,
		Keywords:    rec.Keywords,
		Rmax:        rec.Rmax,
		K:           rec.K,
		Epoch:       rec.Trace.Epoch,
		Indexed:     rec.Indexed,
		Results:     rec.Results,
		Complete:    rec.StopReason == "",
		StopReason:  rec.StopReason,
		LatencyMS:   rec.TotalMS,
		UnixMS:      rec.Start.UnixMilli(),
	}
	if sp, ok := rec.Trace.Span("engine_init"); ok {
		e.InitMS = sp.DurMS
	}
	return e
}
