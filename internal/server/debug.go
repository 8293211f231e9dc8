package server

// GET /debug/queries is the server's slow-query log: the JSON view of
// the tail-sampled capture ring — the N slowest queries, every errored
// or SLO-breaching one, and a deterministic background sample — each
// with its full trace, plus the capture and breach counters. It is the
// answer to "what were the slowest queries in the last hour and why"
// that per-query traces alone cannot give.

import (
	"net/http"

	"commdb/internal/obs"
)

// DebugQueriesResponse is the body of GET /debug/queries.
type DebugQueriesResponse struct {
	// Observed counts completed queries offered to the capture layer;
	// Retained counts the records it kept.
	Observed int64 `json:"observed"`
	Retained int64 `json:"retained"`
	// SLOBreaches counts emission-delay SLO breaches process-wide.
	SLOBreaches int64 `json:"slo_breaches"`
	// Queries are the captured records, slowest first, each carrying
	// its full trace summary and the reasons it was retained.
	Queries []obs.QueryRecord `json:"queries"`
}

// handleDebugQueries answers GET /debug/queries.
func (s *Server) handleDebugQueries(w http.ResponseWriter, _ *http.Request) {
	observed, retained := s.collector.CaptureStats()
	writeJSON(w, http.StatusOK, DebugQueriesResponse{
		Observed:    observed,
		Retained:    retained,
		SLOBreaches: s.collector.Breaches(),
		Queries:     s.collector.SlowLog(),
	})
}
