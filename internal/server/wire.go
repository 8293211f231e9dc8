package server

// This file defines the wire types: the JSON request and record schema
// shared by the server's endpoints and cmd/commsearch -json, so CLI
// and server output are script-compatible and cross-checkable.

import (
	"errors"
	"fmt"
	"time"

	"commdb"
	"commdb/internal/obs"
)

// SearchRequest is the body of POST /v1/search/topk and
// POST /v1/search/all.
type SearchRequest struct {
	// Keywords are the l query keywords. Order and case do not matter:
	// the server normalizes the query before running it, and core
	// positions in the response follow the normalized (sorted
	// lowercase) keyword order.
	Keywords []string `json:"keywords"`
	// Rmax is the community radius.
	Rmax float64 `json:"rmax"`
	// Cost selects the ranking aggregate: "sum" (default) or "max".
	Cost string `json:"cost,omitempty"`
	// K bounds a top-k search (topk endpoint only; default 10).
	K int `json:"k,omitempty"`
	// Compact omits node and edge lists from each record, returning
	// only cores, centers and costs.
	Compact bool `json:"compact,omitempty"`
	// Limits bounds the query's resources. Every field is clamped to
	// the server's configured maxima.
	Limits LimitsSpec `json:"limits,omitempty"`
	// Trace asks for EXPLAIN mode: the response carries the query's
	// structured trace (per-stage spans, engine counters, inter-emission
	// delays). Trace requests bypass cache reads so the trace reflects a
	// real execution.
	Trace bool `json:"trace,omitempty"`
}

// LimitsSpec is the wire form of commdb.Limits: a relative timeout plus
// the resource budgets. Zero means "no request-side limit" (the
// server's clamps still apply).
type LimitsSpec struct {
	TimeoutMS       int64 `json:"timeout_ms,omitempty"`
	MaxRelaxations  int64 `json:"max_relaxations,omitempty"`
	MaxNeighborRuns int64 `json:"max_neighbor_runs,omitempty"`
	MaxCanTuples    int64 `json:"max_can_tuples,omitempty"`
	MaxHeapBytes    int64 `json:"max_heap_bytes,omitempty"`
	MaxResults      int64 `json:"max_results,omitempty"`
}

// Limits converts the wire spec to engine limits.
func (l LimitsSpec) Limits() commdb.Limits {
	return commdb.Limits{
		Timeout:         time.Duration(l.TimeoutMS) * time.Millisecond,
		MaxRelaxations:  l.MaxRelaxations,
		MaxNeighborRuns: l.MaxNeighborRuns,
		MaxCanTuples:    l.MaxCanTuples,
		MaxHeapBytes:    l.MaxHeapBytes,
		MaxResults:      l.MaxResults,
	}
}

// ClampLimits caps req to the server maxima: where a maximum is set
// (non-zero), the effective value is the tighter of the two, and an
// unlimited request is pulled down to the maximum. An unlimited budget
// is any non-positive one, as the governor reads it; an unlimited
// timeout is zero only, since a negative one has already expired. Where
// no maximum is set the request passes through.
func ClampLimits(req, max commdb.Limits) commdb.Limits {
	clampI := func(r, m int64) int64 {
		if m > 0 && (r <= 0 || r > m) {
			return m
		}
		return r
	}
	clampD := func(r, m time.Duration) time.Duration {
		if m > 0 && (r == 0 || r > m) {
			return m
		}
		return r
	}
	return commdb.Limits{
		Deadline:        req.Deadline, // absolute deadlines are not settable over the wire
		Timeout:         clampD(req.Timeout, max.Timeout),
		MaxRelaxations:  clampI(req.MaxRelaxations, max.MaxRelaxations),
		MaxNeighborRuns: clampI(req.MaxNeighborRuns, max.MaxNeighborRuns),
		MaxCanTuples:    clampI(req.MaxCanTuples, max.MaxCanTuples),
		MaxHeapBytes:    clampI(req.MaxHeapBytes, max.MaxHeapBytes),
		MaxResults:      clampI(req.MaxResults, max.MaxResults),
	}
}

// Query converts the request to a normalized engine query with its
// ranker always set (without limits, which the server clamps
// separately).
func (r *SearchRequest) Query() (commdb.Query, error) {
	ranker := commdb.SumRanker()
	switch r.Cost {
	case "", "sum":
	case "max":
		ranker = commdb.MaxRanker()
	default:
		return commdb.Query{}, fmt.Errorf("unknown cost function %q (want sum or max)", r.Cost)
	}
	if len(r.Keywords) == 0 {
		return commdb.Query{}, errors.New("keywords are required")
	}
	q := commdb.Query{Keywords: r.Keywords, Rmax: r.Rmax, Ranker: ranker}
	return q.Normalized(), nil
}

// CommunityRecord is one community on the wire: one NDJSON line of the
// streaming endpoint, one element of the top-k response, and one line
// of cmd/commsearch -json.
type CommunityRecord struct {
	Type string `json:"type"` // "community"
	// Rank is the 1-based position in the response stream. On the topk
	// endpoint ranks follow cost order; on the streaming endpoint they
	// follow enumeration order (the first is still minimum-cost).
	Rank int     `json:"rank"`
	Cost float64 `json:"cost"`
	// Core holds the keyword node chosen for each normalized keyword
	// position.
	Core []commdb.NodeID `json:"core"`
	// CoreLabels are the graph labels of the core nodes, when the
	// serving graph carries labels.
	CoreLabels []string `json:"core_labels,omitempty"`
	// Centers are the community's center nodes.
	Centers []commdb.NodeID `json:"centers"`
	// Nodes and Edges materialize the induced subgraph; omitted when
	// the request asked for compact records. Each edge is a [from, to]
	// pair.
	Nodes []commdb.NodeID    `json:"nodes,omitempty"`
	Edges [][2]commdb.NodeID `json:"edges,omitempty"`
}

// RecordType values for the NDJSON stream.
const (
	RecordCommunity = "community"
	RecordTrailer   = "trailer"
)

// NewRecord renders one community as its wire record. g supplies core
// labels and may be nil; compact omits the node and edge lists.
func NewRecord(rank int, c *commdb.Community, g *commdb.Graph, compact bool) CommunityRecord {
	rec := CommunityRecord{
		Type:    RecordCommunity,
		Rank:    rank,
		Cost:    c.Cost,
		Core:    append([]commdb.NodeID(nil), c.Core...),
		Centers: append([]commdb.NodeID(nil), c.Cnodes...),
	}
	if g != nil {
		rec.CoreLabels = make([]string, len(c.Core))
		for i, v := range c.Core {
			rec.CoreLabels[i] = g.Label(v)
		}
	}
	if !compact {
		rec.Nodes = append([]commdb.NodeID(nil), c.Nodes...)
		rec.Edges = make([][2]commdb.NodeID, len(c.Edges))
		for i, e := range c.Edges {
			rec.Edges[i] = [2]commdb.NodeID{e.From, e.To}
		}
	}
	return rec
}

// Trailer is the final NDJSON record of a stream: how many communities
// were delivered and whether the enumeration ran to completion. When
// Complete is false, Reason holds the human-readable stop reason (a
// tripped budget, a deadline, a cancellation or a server shutdown) and
// the records already delivered are a valid partial answer.
type Trailer struct {
	Type      string `json:"type"` // "trailer"
	Count     int    `json:"count"`
	Complete  bool   `json:"complete"`
	Reason    string `json:"reason,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Epoch is the snapshot epoch the whole stream was answered from
	// (0 when the server runs without snapshot reload). Every record of
	// one stream comes from this single epoch, even when a reload
	// swapped epochs mid-stream.
	Epoch int64 `json:"epoch,omitempty"`
	// Trace is the query's trace summary, present when the request set
	// "trace": true.
	Trace *obs.Summary `json:"trace,omitempty"`
}

// NewTrailer builds the trailer for a stream that delivered count
// communities and stopped with stopErr (nil = clean exhaustion).
func NewTrailer(count int, stopErr error, elapsed time.Duration) Trailer {
	t := Trailer{Type: RecordTrailer, Count: count, Complete: stopErr == nil, ElapsedMS: elapsed.Milliseconds()}
	if stopErr != nil {
		t.Reason = StopReason(stopErr)
	}
	return t
}

// StopReason renders an iterator stop reason for the wire.
func StopReason(err error) string {
	var be commdb.ErrBudgetExhausted
	switch {
	case err == nil:
		return ""
	case errors.As(err, &be):
		return fmt.Sprintf("budget exhausted: %s (spent %d, limit %d)", be.Resource, be.Spent, be.Limit)
	case errors.Is(err, commdb.ErrDeadlineExceeded):
		return "deadline exceeded"
	case errors.Is(err, ErrServerClosed):
		return "server shutting down"
	case errors.Is(err, commdb.ErrCanceled):
		return "canceled"
	default:
		return err.Error()
	}
}

// TopKResponse is the body of POST /v1/search/topk.
type TopKResponse struct {
	Results []CommunityRecord `json:"results"`
	// Complete reports that the enumeration was not cut short: either k
	// communities were found or the query is exhausted below k.
	Complete bool `json:"complete"`
	// Reason is the stop reason when Complete is false.
	Reason string `json:"reason,omitempty"`
	// Cached reports the response was served from the result cache.
	Cached    bool  `json:"cached"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// Epoch is the snapshot epoch that answered (0 without snapshot
	// reload). Cached answers carry the epoch too: the cache is keyed
	// by epoch, so a hit is always epoch-consistent.
	Epoch int64 `json:"epoch,omitempty"`
	// Trace is the query's trace summary, present when the request set
	// "trace": true.
	Trace *obs.Summary `json:"trace,omitempty"`
}

// ReloadResponse is the body of POST /admin/reload.
type ReloadResponse struct {
	// Outcome is one of the snapshot outcome strings ("success",
	// "rejected_corrupt", ...; empty when the reload could not start).
	Outcome string `json:"outcome,omitempty"`
	// Epoch is the serving epoch after the attempt — unchanged when the
	// artifact was rejected.
	Epoch int64 `json:"epoch"`
	// Error is the load failure, when the reload was rejected.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
