package index

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"commdb/internal/fulltext"
	"commdb/internal/graph"
	"commdb/internal/prof"
	"commdb/internal/sssp"
)

// Partial rebuild: construct the index for a new graph generation by
// recomputing only the terms a mutation batch can have affected and
// remapping every other term's posting list from the previous index.
//
// The caller (internal/delta) supplies three things it is responsible
// for getting right:
//
//   - perm, the old→new node-ID map (perm[v0] = v1, or -1 when the
//     tuple behind v0 was deleted). Because ToGraph assigns IDs in
//     (table order × row order) and mutations preserve row order, perm
//     is strictly increasing over surviving nodes — so a remapped
//     posting list is still sorted by (From, To) and serializes to the
//     exact bytes a from-scratch Build would produce.
//   - dirty, the set of term *words* whose invertedE may differ. Words,
//     not IDs: interning order shifts across generations, so IDs are
//     not comparable between the two dictionaries.
//   - region (optional), the changed region: every new-generation node
//     that can reach a changed tuple within R in either generation.
//     Outside it, no distance, no settled-set membership, and no edge
//     weight the index depends on can have changed. With a region and
//     an old index built with KeepDistances, dirty terms are repaired
//     by a Dijkstra restricted to the region (old distances provide
//     the boundary conditions) instead of a global per-term run — the
//     difference between O(changed neighborhood) and O(term ball).
//
// Soundness is the caller's radius-bounded dirty-set argument (see
// DESIGN.md); this function adds fail-closed checks for the two
// invariants it relies on: a clean term must exist in the old
// dictionary (a brand-new word can only be introduced by an inserted
// node, which the caller must have marked dirty), and a clean term's
// posting endpoints must all survive (a deleted endpoint was inside
// the term's R-ball, which again forces dirtiness). A violation
// returns an error — the caller falls back to a full Build — rather
// than a silently wrong index.

// PartialStats reports what a partial rebuild did, for observability
// and for the benchmarks that justify the delta path.
type PartialStats struct {
	TotalTerms int
	DirtyTerms int
	// RecomputedTerms took a full per-term Dijkstra; PatchedTerms were
	// repaired inside the changed region. Both are dirty terms.
	RecomputedTerms    int
	PatchedTerms       int
	RemappedTerms      int
	RecomputedPostings int64
	RemappedPostings   int64
}

// exitEdge is one edge leaving the changed region, precomputed once
// per batch: the region node it leaves, the weight, and the *previous
// generation* ID of its outside target, whose per-term old distance
// seeds the repair run as a boundary condition.
type exitEdge struct {
	from   graph.NodeID
	oldTo  graph.NodeID
	weight float64
}

// oldDistLookup is a worker-local dense view of one term's sidecar over
// the previous graph's node space. patchTerm probes old distances once
// per exit edge and once per candidate posting endpoint; binary search
// over the sidecar made those probes the top cost of a repair, so each
// term's list is stamped into a reusable array (O(|sidecar|), the same
// order as the remap that already walks it) and every probe becomes
// O(1). The epoch stamp makes re-use across terms allocation-free.
type oldDistLookup struct {
	dist  []float64
	epoch []int64
	cur   int64
}

// lookupPool recycles oldDistLookup scratch across batches: a fresh
// pair of node-sized arrays per worker per batch is pure zeroing cost
// (the epoch discipline never reads unstamped entries), so reuse is
// both safe and the cheapest allocation strategy.
var lookupPool sync.Pool

func newOldDistLookup(n int) *oldDistLookup {
	if l, ok := lookupPool.Get().(*oldDistLookup); ok && len(l.dist) >= n {
		return l
	}
	return &oldDistLookup{dist: make([]float64, n), epoch: make([]int64, n)}
}

// release returns the scratch to the pool.
func (l *oldDistLookup) release() {
	if l != nil {
		lookupPool.Put(l)
	}
}

// load makes d the current term's sidecar.
func (l *oldDistLookup) load(d []NodeDist) {
	l.cur++
	for _, nd := range d {
		l.epoch[nd.Node] = l.cur
		l.dist[nd.Node] = nd.Dist
	}
}

// get reports the loaded term's old distance of a previous-generation
// node, if it was settled.
func (l *oldDistLookup) get(v graph.NodeID) (float64, bool) {
	if l.epoch[v] != l.cur {
		return 0, false
	}
	return l.dist[v], true
}

// RebuildPartial builds the index for g, reusing old (built over the
// previous graph generation with the same options) for every term not
// in dirty. invertedN is always rebuilt — it is a single linear scan.
// region, when non-nil, enables the boundary-conditioned repair path
// for dirty terms (requires old to carry KeepDistances sidecars and
// both graphs to be free of node weights).
func RebuildPartial(g *graph.Graph, opt BuildOptions, old *Index, perm []graph.NodeID, dirty map[string]bool, region []bool) (*Index, PartialStats, error) {
	var st PartialStats
	if old == nil {
		return nil, st, fmt.Errorf("index: partial rebuild needs a previous index")
	}
	if opt.R != old.r {
		return nil, st, fmt.Errorf("index: partial rebuild radius %v differs from previous %v", opt.R, old.r)
	}
	if len(perm) != old.g.NumNodes() {
		return nil, st, fmt.Errorf("index: permutation covers %d nodes, previous graph has %d", len(perm), old.g.NumNodes())
	}
	if region != nil && len(region) != g.NumNodes() {
		return nil, st, fmt.Errorf("index: region covers %d nodes, graph has %d", len(region), g.NumNodes())
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
	dict0, dict1 := old.g.Dict(), g.Dict()
	st.TotalTerms = dict1.Size()

	// The repair path needs old distances for boundary conditions and
	// weight-invariance outside the region, which node weights would
	// break (a path's cost would depend on nodes the region argument
	// does not cover).
	patchable := region != nil && old.dists != nil &&
		g.NodeWeights() == nil && old.g.NodeWeights() == nil

	// invPerm maps new→old IDs; every node outside the region survived
	// from the previous generation (inserted nodes are changed tuples,
	// which the caller's region must contain).
	var invPerm []graph.NodeID
	var exits []exitEdge
	if patchable {
		invPerm = make([]graph.NodeID, g.NumNodes())
		for i := range invPerm {
			invPerm[i] = -1
		}
		for v0, v1 := range perm {
			if v1 >= 0 {
				invPerm[v1] = graph.NodeID(v0)
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !region[v] {
				continue
			}
			for _, e := range g.OutEdges(graph.NodeID(v)) {
				if region[e.To] {
					continue
				}
				if invPerm[e.To] < 0 {
					return nil, st, fmt.Errorf("index: partial rebuild: inserted node %d outside the changed region", e.To)
				}
				exits = append(exits, exitEdge{from: graph.NodeID(v), oldTo: invPerm[e.To], weight: e.Weight})
			}
		}
	}

	// Clean terms first, inline: remapping is a linear copy, so the
	// worker pool is reserved for the per-term repairs and recomputes.
	remapEnd := opt.Stages.Timer("remap")
	var dirtyIDs []int32
	for t := int32(0); int(t) < dict1.Size(); t++ {
		word := dict1.Word(t)
		if dirty[word] {
			dirtyIDs = append(dirtyIDs, t)
			continue
		}
		t0, ok := dict0.ID(word)
		if !ok {
			return nil, st, fmt.Errorf("index: partial rebuild: clean term %q is absent from the previous index", word)
		}
		st.RemappedTerms++
		posts := old.edges[t0]
		if len(posts) > 0 {
			out := make([]graph.EdgePair, len(posts))
			for i, e := range posts {
				nf, nt := perm[e.From], perm[e.To]
				if nf < 0 || nt < 0 {
					return nil, st, fmt.Errorf("index: partial rebuild: clean term %q posting (%d,%d) lost an endpoint", word, e.From, e.To)
				}
				out[i] = graph.EdgePair{From: nf, To: nt}
			}
			ix.edges[t] = out
			st.RemappedPostings += int64(len(posts))
		}
		if opt.KeepDistances && old.dists != nil {
			if d := old.dists[t0]; len(d) > 0 {
				out := make([]NodeDist, len(d))
				for i, e := range d {
					nv := perm[e.Node]
					if nv < 0 {
						return nil, st, fmt.Errorf("index: partial rebuild: clean term %q settled node %d was deleted", word, e.Node)
					}
					out[i] = NodeDist{Node: nv, Dist: e.Dist}
				}
				ix.dists[t] = out
			}
		}
	}
	remapEnd()
	st.DirtyTerms = len(dirtyIDs)

	// Dirty terms: repaired inside the changed region where possible,
	// recomputed exactly as Build would otherwise, so the result is
	// bit-identical to a full build with the same options.
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(dirtyIDs) && len(dirtyIDs) > 0 {
		workers = len(dirtyIDs)
	}
	type job struct {
		term  int32
		term0 int32 // old-generation term ID; -1 forces a full recompute
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := sssp.NewWorkspace(g)
			ws.SetBudget(opt.Budget)
			res := sssp.NewResult(g.NumNodes())
			var look *oldDistLookup
			if patchable {
				look = newOldDistLookup(old.g.NumNodes())
				defer look.release()
			}
			for j := range jobs {
				post := ix.nodes.NodesByID(j.term)
				if j.term0 >= 0 {
					end := opt.Stages.Timer("repair")
					look.load(old.dists[j.term0])
					edges, dd := patchTerm(
						g, ws, res, post, opt.R,
						old.dists[j.term0], old.edges[j.term0], look,
						perm, invPerm, region, exits, opt.KeepDistances, opt.Stages)
					ix.edges[j.term] = edges
					if ix.dists != nil {
						ix.dists[j.term] = dd
					}
					end()
					continue
				}
				end := opt.Stages.Timer("recompute")
				ix.edges[j.term] = buildEdgeList(g, ws, res, post, opt.R)
				if opt.KeepDistances {
					ix.dists[j.term] = extractDists(res)
				}
				end()
			}
		}()
	}
	patched := 0
	for _, t := range dirtyIDs {
		if opt.Budget.Err() != nil {
			break
		}
		if len(ix.nodes.NodesByID(t)) == 0 {
			continue
		}
		j := job{term: t, term0: -1}
		if patchable {
			// A term new to this generation, or one nothing carried before
			// (no sidecar), has no boundary conditions: recompute.
			if t0, ok := dict0.ID(dict1.Word(t)); ok && old.dists[t0] != nil {
				j.term0 = t0
				patched++
			}
		}
		st.RecomputedTerms++
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	st.PatchedTerms = patched
	st.RecomputedTerms -= patched
	if err := opt.Budget.Err(); err != nil {
		return nil, st, fmt.Errorf("index: partial rebuild aborted: %w", err)
	}
	for _, t := range dirtyIDs {
		st.RecomputedPostings += int64(len(ix.edges[t]))
	}
	ix.buildTime = time.Since(start)
	return ix, st, nil
}

// patchTerm repairs one dirty term's posting list without leaving the
// changed region. The term's settled set and distances can only have
// changed inside the region (every changed edge has an endpoint among
// the changed tuples, and any ≤R path through one puts its origin in
// the region), so:
//
//   - distances inside the region are recomputed by a region-restricted
//     reverse Dijkstra whose seeds are the term's carriers in the
//     region (at distance 0) plus every region node with an edge to a
//     settled outside node (at that node's old distance plus the edge
//     weight — the boundary condition);
//   - postings with both endpoints outside the region are remapped
//     unchanged; every posting touching the region is re-derived from
//     the repaired distances and current edge weights.
//
// Float distance sums associate in the same order as a full build's
// Dijkstra (boundary seeds extend the old accumulation chains by one
// addition, exactly as a global run would), so the repaired posting
// list is bit-identical to a recomputed one — the golden tests assert
// this end to end.
func patchTerm(g *graph.Graph, ws *sssp.Workspace, res *sssp.Result, post []graph.NodeID, r float64,
	oldD []NodeDist, oldPost []graph.EdgePair, look *oldDistLookup, perm, invPerm []graph.NodeID,
	region []bool, exits []exitEdge, keep bool, stages *prof.Stages) ([]graph.EdgePair, []NodeDist) {

	seeds := make([]sssp.Seed, 0, len(exits)+8)
	for _, c := range post {
		if region[c] {
			seeds = append(seeds, sssp.Seed{Node: c})
		}
	}
	for _, e := range exits {
		if d, ok := look.get(e.oldTo); ok {
			seeds = append(seeds, sssp.Seed{Node: e.from, Dist: d + e.weight})
		}
	}
	ws.RunWithin(sssp.Reverse, seeds, r, res, region)

	// Membership in the term's settled set: repaired distances decide
	// inside the region, the old sidecar (presence = settled within R)
	// outside it.
	member := func(v graph.NodeID) bool {
		if region[v] {
			return res.Contains(v)
		}
		_, ok := look.get(invPerm[v])
		return ok
	}

	// Re-derive every posting with an endpoint in the region: edges
	// leaving a repaired node, plus edges entering one from outside.
	// Parallel edges collapse to one posting, as in buildEdgeList.
	var adds []graph.EdgePair
	for _, u := range res.Visited() {
		prev := graph.NodeID(-1)
		for _, e := range g.OutEdges(u) {
			if e.To == prev {
				continue
			}
			prev = e.To
			if member(e.To) {
				adds = append(adds, graph.EdgePair{From: u, To: e.To})
			}
		}
		prev = -1
		for _, e := range g.InEdges(u) {
			if e.To == prev {
				continue
			}
			prev = e.To
			if !region[e.To] && member(e.To) {
				adds = append(adds, graph.EdgePair{From: e.To, To: u})
			}
		}
	}
	sortPostings(adds)

	// Untouched postings: both endpoints survived outside the region, so
	// their membership is unchanged (postings carry no weight to go
	// stale). perm is monotone, so the kept run stays sorted; kept and
	// added postings partition the result by "touches the region", so a
	// single ordered merge reproduces the canonical (From, To) order.
	mergeEnd := stages.Timer("merge")
	kept := make([]graph.EdgePair, 0, len(oldPost))
	for _, e := range oldPost {
		nf, nt := perm[e.From], perm[e.To]
		if nf < 0 || nt < 0 || region[nf] || region[nt] {
			continue
		}
		kept = append(kept, graph.EdgePair{From: nf, To: nt})
	}
	out := mergePostings(nil, kept, adds)

	var dists []NodeDist
	if keep {
		keptD := make([]NodeDist, 0, len(oldD))
		for _, e := range oldD {
			nv := perm[e.Node]
			if nv < 0 || region[nv] {
				continue
			}
			keptD = append(keptD, NodeDist{Node: nv, Dist: e.Dist})
		}
		dists = mergeDists(keptD, extractDists(res))
	}
	mergeEnd()
	return out, dists
}

// mergeDists merges two node-sorted, node-disjoint distance lists.
func mergeDists(a, b []NodeDist) []NodeDist {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]NodeDist, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Node < b[j].Node {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Equal reports whether two indexes hold identical radii and postings
// — the in-memory form of the byte-identity the golden tests assert on
// the serialized artifacts. Used by tests and the maintainer's
// self-checks.
func (ix *Index) Equal(other *Index) bool {
	if ix.r != other.r || len(ix.edges) != len(other.edges) {
		return false
	}
	for t := range ix.edges {
		a, b := ix.edges[t], other.edges[t]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
