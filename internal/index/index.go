// Package index implements Section VI of the paper: the two inverted
// indexes (invertedN: keyword → nodes; invertedE: keyword → edges whose
// endpoints both lie within R of a node containing the keyword) and the
// GraphProjection algorithm (Algorithm 6) that cuts a small query-
// specific subgraph G_P out of the database graph such that any
// l-keyword query with Rmax ≤ R returns the same communities on G_P as
// on G_D.
//
// Projection preserves every distance that determines community
// membership, centers, and costs. The one thing it may drop is an
// induced community edge that lies on no short center→keyword path;
// callers that materialize communities therefore re-induce edges over
// the parent graph (the public API does this), making results exactly
// equal to an unprojected run — a property the tests assert.
package index

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"commdb/internal/fulltext"
	"commdb/internal/govern"
	"commdb/internal/graph"
	"commdb/internal/prof"
	"commdb/internal/sssp"
)

// NodeDist records one settled node of a term's bounded Dijkstra with
// its shortest distance to the term's carriers. Lists are sorted by
// node ID for binary search and ordered merging.
type NodeDist struct {
	Node graph.NodeID
	Dist float64
}

// Index is the pair of inverted indexes for one database graph and a
// maximum supported query radius R.
type Index struct {
	g *graph.Graph
	r float64

	// nodes is invertedN, shared with full-text search.
	nodes *fulltext.Index
	// edges is invertedE, indexed by interned term ID: each posting
	// names one graph edge by its endpoints. Weights live in the graph
	// (projection and serialization read them from there), so a posting
	// cannot go stale when a delta batch reweights an edge it keeps.
	edges [][]graph.EdgePair

	// dists, when built with KeepDistances, holds per term the settled
	// set of its bounded Dijkstra (every node within R of the term's
	// carriers, with its distance), sorted by node. It is an in-memory
	// sidecar for RebuildPartial's boundary-conditioned repair and is
	// never serialized — the artifact bytes are identical either way.
	dists [][]NodeDist

	buildTime time.Duration

	// scratch recycles *projScratch, projection's transient working
	// memory (project.go): not serialized, not in Footprint.
	scratch sync.Pool

	// foot caches the exact accounting tree; indexes are immutable
	// once built, so scrapes stay cheap.
	footOnce sync.Once
	foot     prof.Footprint
}

// BuildOptions tunes index construction.
type BuildOptions struct {
	// R is the largest Rmax the index must support.
	R float64
	// Workers bounds build parallelism; 0 uses GOMAXPROCS.
	Workers int
	// KeepDistances retains each term's settled distance set alongside
	// its posting list (memory on the order of the postings), enabling
	// the boundary-conditioned repair path of RebuildPartial. The
	// serialized artifact is unaffected.
	KeepDistances bool
	// Budget, when non-nil, governs the build — the longest single
	// operation in the system (one bounded Dijkstra per distinct term).
	// It is shared by all workers; when it trips, in-flight term runs
	// stop, no further terms are dispatched, and Build returns the stop
	// reason instead of a half-built index.
	Budget *govern.Budget
	// Stages, when non-nil, accumulates per-phase build timings
	// (fulltext scan, per-term Dijkstras; RebuildPartial adds its
	// remap/repair/recompute/merge phases). Worker time is summed
	// across workers, so parallel stages report CPU time, which can
	// exceed wall time. Nil costs nothing (see prof.Stages).
	Stages *prof.Stages
}

// Build constructs both inverted indexes. One bounded multi-source
// reverse Dijkstra runs per distinct term; terms are processed in
// parallel across workers.
func Build(g *graph.Graph, opt BuildOptions) (*Index, error) {
	if math.IsNaN(opt.R) || math.IsInf(opt.R, 0) {
		return nil, fmt.Errorf("index: non-finite radius %v", opt.R)
	}
	if opt.R < 0 {
		return nil, fmt.Errorf("index: negative radius %v", opt.R)
	}
	start := time.Now()
	ftEnd := opt.Stages.Timer("fulltext")
	ft := fulltext.Build(g)
	ftEnd()
	ix := &Index{
		g:     g,
		r:     opt.R,
		nodes: ft,
		edges: make([][]graph.EdgePair, g.Dict().Size()),
	}
	if opt.KeepDistances {
		ix.dists = make([][]NodeDist, g.Dict().Size())
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct{ term int32 }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := sssp.NewWorkspace(g)
			ws.SetBudget(opt.Budget) // one shared, concurrency-safe budget
			res := sssp.NewResult(g.NumNodes())
			for j := range jobs {
				end := opt.Stages.Timer("term_dijkstra")
				ix.edges[j.term] = buildEdgeList(g, ws, res, ix.nodes.NodesByID(j.term), opt.R)
				if opt.KeepDistances {
					ix.dists[j.term] = extractDists(res)
				}
				end()
			}
		}()
	}
	for t := int32(0); int(t) < g.Dict().Size(); t++ {
		if opt.Budget.Err() != nil {
			break // stop dispatching; workers drain their empty runs
		}
		if len(ix.nodes.NodesByID(t)) == 0 {
			continue
		}
		jobs <- job{term: t}
	}
	close(jobs)
	wg.Wait()
	if err := opt.Budget.Err(); err != nil {
		// A truncated edge list would silently drop community edges on
		// every later query; an aborted build is an error, not an index.
		return nil, fmt.Errorf("index: build aborted: %w", err)
	}
	ix.buildTime = time.Since(start)
	return ix, nil
}

// buildEdgeList computes invertedE for one term: every edge whose both
// endpoints reach a node of post within R.
func buildEdgeList(g *graph.Graph, ws *sssp.Workspace, res *sssp.Result, post []graph.NodeID, r float64) []graph.EdgePair {
	ws.RunFromNodes(sssp.Reverse, post, r, res)
	var out []graph.EdgePair
	for _, u := range res.Visited() {
		prev := graph.NodeID(-1)
		for _, e := range g.OutEdges(u) {
			if e.To == prev {
				continue // parallel edge: one posting names them all
			}
			prev = e.To
			if res.Contains(e.To) {
				out = append(out, graph.EdgePair{From: u, To: e.To})
			}
		}
	}
	// Canonical (From, To) order: Visited() settles in distance order, so
	// sort to make builds byte-stable for serialization and to give the
	// on-disk loader a strict monotonicity invariant to check against.
	sortPostings(out)
	return out
}

// postingKey orders postings by (From, To) in one comparison (node IDs
// are non-negative).
func postingKey(e graph.EdgePair) uint64 { return uint64(uint32(e.From))<<32 | uint64(uint32(e.To)) }

// sortPostings orders a posting list by (From, To), once per term.
func sortPostings(out []graph.EdgePair) {
	slices.SortFunc(out, func(a, b graph.EdgePair) int { return cmp.Compare(postingKey(a), postingKey(b)) })
}

// extractDists snapshots a run's settled set as a node-sorted distance
// list, the sidecar entry KeepDistances retains per term.
func extractDists(res *sssp.Result) []NodeDist {
	vis := res.Visited()
	if len(vis) == 0 {
		return nil
	}
	out := make([]NodeDist, len(vis))
	for i, v := range vis {
		d, _ := res.Dist(v)
		out[i] = NodeDist{Node: v, Dist: d}
	}
	slices.SortFunc(out, func(a, b NodeDist) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// Graph returns the indexed database graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// R reports the largest supported query radius.
func (ix *Index) R() float64 { return ix.r }

// Fulltext exposes invertedN for keyword resolution.
func (ix *Index) Fulltext() *fulltext.Index { return ix.nodes }

// BuildTime reports how long Build took.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// EdgePostings returns invertedE for a term, or nil when the term was
// not indexed.
func (ix *Index) EdgePostings(term string) []graph.EdgePair {
	id, ok := ix.g.Dict().ID(term)
	if !ok {
		return nil
	}
	return ix.edges[id]
}

// Bytes reports the exact retained memory of both inverted indexes
// (plus the distance sidecar when built with KeepDistances), the
// quantity the paper reports against the raw dataset size. It is the
// root total of Footprint.
func (ix *Index) Bytes() int64 { return ix.Footprint().Bytes }

// Footprint returns the exact accounting tree for the index:
// invertedN (delegated to fulltext), invertedE (24-byte slice headers
// in the outer array plus 8 bytes per (From, To) posting), and the
// KeepDistances sidecar when present. Indexes are immutable once
// built, so the tree is computed once and cached.
func (ix *Index) Footprint() prof.Footprint {
	ix.footOnce.Do(func() {
		ftE := prof.Footprint{
			Name:  "invertedE",
			Bytes: prof.SliceBytes(cap(ix.edges), 24),
		}
		for _, es := range ix.edges {
			ftE.Bytes += int64(cap(es)) * 8
			ftE.Items += int64(len(es))
		}
		parts := []prof.Footprint{ix.nodes.Footprint(), ftE}
		if ix.dists != nil {
			sd := prof.Footprint{
				Name:  "dist_sidecar",
				Bytes: prof.SliceBytes(cap(ix.dists), 24),
			}
			for _, ds := range ix.dists {
				sd.Bytes += int64(cap(ds)) * 16
				sd.Items += int64(len(ds))
			}
			parts = append(parts, sd)
		}
		ix.foot = prof.Group("index", parts...)
		ix.foot.Items = int64(ix.g.Dict().Size())
	})
	return ix.foot
}

// Stats summarizes the index for reporting.
type Stats struct {
	Terms      int
	EdgeLists  int
	TotalEdges int64
	Bytes      int64
	BuildTime  time.Duration
}

// ComputeStats scans the index once.
func (ix *Index) ComputeStats() Stats {
	s := Stats{Terms: ix.g.Dict().Size(), Bytes: ix.Bytes(), BuildTime: ix.buildTime}
	for _, es := range ix.edges {
		if len(es) > 0 {
			s.EdgeLists++
			s.TotalEdges += int64(len(es))
		}
	}
	return s
}
