// Package kwcache is the keyword neighbor-set artifact store. A query
// keyword's full-set run Neighbor(V_i) — the bounded reverse Dijkstra
// from every node containing the keyword — is query-independent: it
// depends only on the graph, the keyword and the radius. The store
// computes those runs once at a fixed radius R (typically the index
// radius, the largest Rmax the server admits), keeps the settle
// sequences, and serves any query with Rmax ≤ R by truncation, turning
// engine init for hot keywords into a memory read.
//
// Soundness of the truncation rests on two properties:
//
//  1. A settle sequence is produced in non-decreasing distance order, so
//     "all nodes within rmax" is a prefix of "all nodes within R".
//  2. The Dijkstra heap orders items canonically by (distance, node id)
//     — see internal/heap — so the prefix is not merely the same node
//     set but the exact settle order, distances, sources and via hops a
//     live run at rmax would produce. The engine's downstream state is
//     therefore byte-identical to cold execution.
//
// A plain query's projection asks for its sets at
// index.TailRadius(rmax, n), a few ulps past rmax, so the store runs
// them to TailRadius(R, n): every query with Rmax ≤ R is served, at R
// itself too.
//
// The store is in-memory only and serves un-indexed execution only. It
// is safe for concurrent use: lookups take a read lock, Warm inserts
// under a write lock, and entries are immutable once published.
package kwcache

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"commdb/internal/fulltext"
	"commdb/internal/graph"
	"commdb/internal/index"
	"commdb/internal/sssp"
)

// Store holds per-keyword neighbor-set artifacts computed at one radius
// over one graph snapshot.
type Store struct {
	ft     *fulltext.Index
	g      *graph.Graph
	radius float64
	// reach is the radius the runs go to, index.TailRadius(radius, n):
	// the largest FullSet request served.
	reach float64

	mu    sync.RWMutex
	terms map[string]*entry

	hits, misses atomic.Int64
}

// entry is one keyword's artifact: the seeds V_term and the full settle
// sequence of the reverse run at the store radius, in settle order.
// Immutable after publication.
type entry struct {
	seeds   []graph.NodeID // sorted ascending
	visited []graph.NodeID
	dist    []float64
	src     []graph.NodeID
	via     []graph.NodeID
}

func (e *entry) bytes() int64 {
	return int64(len(e.seeds))*4 + int64(len(e.visited))*(4+8+4+4) + 64
}

// New returns an empty store over ft's graph at the given radius.
func New(ft *fulltext.Index, radius float64) (*Store, error) {
	if math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0 {
		return nil, fmt.Errorf("kwcache: non-finite or negative radius %v", radius)
	}
	return &Store{
		ft:     ft,
		g:      ft.Graph(),
		radius: radius,
		reach:  index.TailRadius(radius, ft.Graph().NumNodes()),
		terms:  make(map[string]*entry),
	}, nil
}

// Radius reports the radius every artifact was computed at. Queries
// with Rmax ≤ Radius can be served; larger radii must fall back to
// live execution.
func (s *Store) Radius() float64 { return s.radius }

// Len reports the number of cached keywords.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.terms)
}

// has reports whether term's artifact is present.
func (s *Store) has(term string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.terms[term]
	return ok
}

// Hits and Misses report how many FullSet probes were served vs fell
// through to live execution.
func (s *Store) Hits() int64   { return s.hits.Load() }
func (s *Store) Misses() int64 { return s.misses.Load() }

// Bytes estimates the store's logical memory footprint.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b int64 = 128
	for t, e := range s.terms {
		b += int64(len(t)) + e.bytes()
	}
	return b
}

// Warm computes and publishes artifacts for every keyword in terms that
// is not already cached, reporting how many were added. Keywords that
// do not tokenize to a single term are skipped (the engine rejects them
// anyway); keywords matching no node get an empty artifact, which
// serves the empty neighbor set exactly as a live run would. Warm may
// run concurrently with FullSet; concurrent Warm calls are serialized
// per insertion and both may compute the same term (last write wins
// with identical content — the run is deterministic).
func (s *Store) Warm(keywords []string) int {
	var todo []string
	for _, kw := range keywords {
		toks := fulltext.Tokenize(kw)
		if len(toks) != 1 {
			continue
		}
		if term := toks[0]; !s.has(term) {
			todo = append(todo, term)
		}
	}
	if len(todo) == 0 {
		return 0
	}
	ws := sssp.NewWorkspace(s.g)
	res := sssp.NewResult(s.g.NumNodes())
	added := 0
	for _, term := range todo {
		if s.has(term) { // raced with another warmer
			continue
		}
		s.put(term, buildEntry(ws, s.ft, term, s.reach, res))
		added++
	}
	return added
}

// buildEntry runs the full-set reverse Dijkstra for one term at radius
// and copies the settle sequence out of res.
func buildEntry(ws *sssp.Workspace, ft *fulltext.Index, term string, radius float64, res *sssp.Result) *entry {
	seeds := ft.Nodes(term)
	ws.RunFromNodes(sssp.Reverse, seeds, radius, res)
	e := &entry{
		seeds:   append([]graph.NodeID(nil), seeds...),
		visited: make([]graph.NodeID, 0, res.Len()),
		dist:    make([]float64, 0, res.Len()),
		src:     make([]graph.NodeID, 0, res.Len()),
		via:     make([]graph.NodeID, 0, res.Len()),
	}
	sort.Slice(e.seeds, func(i, j int) bool { return e.seeds[i] < e.seeds[j] })
	for _, v := range res.Visited() {
		d, _ := res.Dist(v)
		e.visited = append(e.visited, v)
		e.dist = append(e.dist, d)
		e.src = append(e.src, res.Src(v))
		e.via = append(e.via, res.Via(v))
	}
	return e
}

func (s *Store) put(term string, e *entry) {
	s.mu.Lock()
	s.terms[term] = e
	s.mu.Unlock()
}

// FullSet loads term's neighbor set truncated to rmax into res,
// reporting whether it could serve it. A miss (unknown term, or rmax
// beyond TailRadius of the store radius) leaves res untouched; the caller
// falls back to a live run. This is the core.NeighborSource contract.
func (s *Store) FullSet(term string, rmax float64, res *sssp.Result) bool {
	if rmax > s.reach {
		s.misses.Add(1)
		return false
	}
	s.mu.RLock()
	e, ok := s.terms[term]
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return false
	}
	// The settle sequence is non-decreasing in distance: the nodes
	// within rmax are the prefix up to the first distance beyond it.
	cut := sort.Search(len(e.dist), func(i int) bool { return e.dist[i] > rmax })
	res.Load(e.visited[:cut], e.dist[:cut], e.src[:cut], e.via[:cut])
	s.hits.Add(1)
	return true
}
