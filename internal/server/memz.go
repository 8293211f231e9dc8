package server

// GET /debug/memz is the process's memory ledger: the exact accounting
// of every long-lived artifact the server retains — per-epoch graph
// and index footprints under hot reload (two live epochs during a
// probation window), the result cache, the delta maintainer's staging
// artifacts — alongside the runtime heap view. The same snapshot feeds
// the commdb_mem_* gauges, so a curl and a Prometheus scrape see one
// accounting.

import (
	"net/http"
	"runtime"
	"strconv"

	"commdb/internal/prof"
)

// footprinter is the optional interface an Engine implements to report
// its retained-artifact footprint. The production searcherEngine does;
// fake test engines need not.
type footprinter interface {
	Footprint() prof.Footprint
}

// EpochMemory is one live epoch's byte total in a MemorySnapshot — the
// quick per-epoch summary; the full footprint tree is the matching
// "epoch_<id>" component.
type EpochMemory struct {
	Epoch int64 `json:"epoch"`
	Bytes int64 `json:"bytes"`
}

// RuntimeMemory is the runtime's own heap view. It is a second lens on
// the same memory the components account (plus everything the
// accounting deliberately excludes: goroutine stacks, transient query
// state), so it is reported beside TotalBytes, never added to it.
type RuntimeMemory struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	NumGC          uint32 `json:"num_gc"`
}

// MemorySnapshot is the body of GET /debug/memz. TotalBytes sums the
// component views; components can
// share backing arrays (after a delta publish the maintainer's staging
// artifacts ARE the serving epoch's), so the total is an upper bound
// on distinct retained bytes, exact when nothing is shared.
type MemorySnapshot struct {
	TotalBytes int64 `json:"total_bytes"`
	// Components are the accounted artifacts: one "epoch_<id>"
	// footprint per live epoch under hot reload (the fixed engine's
	// footprint otherwise), the result cache, and the delta
	// maintainer's artifacts when running in delta mode.
	Components []prof.Footprint `json:"components"`
	// Epochs summarizes the live epochs, current first — two entries
	// while a fresh epoch's probation keeps its predecessor alive.
	Epochs  []EpochMemory `json:"epochs,omitempty"`
	Runtime RuntimeMemory `json:"runtime"`
}

// memorySnapshot assembles the ledger. The footprint trees are
// Once-cached on the immutable artifacts, so repeated scrapes cost a
// few atomic loads, not a re-count.
func (s *Server) memorySnapshot() MemorySnapshot {
	var out MemorySnapshot
	if s.snaps != nil {
		for _, e := range s.snaps.LiveEpochs() {
			f := e.Searcher().Footprint()
			f.Name = "epoch_" + strconv.FormatInt(e.ID(), 10)
			out.Components = append(out.Components, f)
			out.Epochs = append(out.Epochs, EpochMemory{Epoch: e.ID(), Bytes: f.Bytes})
		}
	} else if fp, ok := s.eng.(footprinter); ok {
		out.Components = append(out.Components, fp.Footprint())
	}
	cs := s.cache.Stats()
	out.Components = append(out.Components, prof.Footprint{
		Name:  "result_cache",
		Bytes: cs.Bytes,
		Items: int64(cs.Entries),
	})
	if s.cfg.DeltaMem != nil {
		out.Components = append(out.Components, s.cfg.DeltaMem())
	}
	for _, c := range out.Components {
		out.TotalBytes += c.Bytes
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Runtime = RuntimeMemory{
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
	}
	return out
}

// servingFootprint is the current serving engine's footprint — the
// epoch a request admitted now would answer from, or the fixed engine.
// The zero Footprint when the engine doesn't report one (fake engines).
func (s *Server) servingFootprint() prof.Footprint {
	eng, _ := s.lease()
	if fp, ok := eng.(footprinter); ok {
		return fp.Footprint()
	}
	return prof.Footprint{}
}

// handleMemz answers GET /debug/memz.
func (s *Server) handleMemz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.memorySnapshot())
}
