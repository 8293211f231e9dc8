package commdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"commdb/internal/core"
	"commdb/internal/fulltext"
	"commdb/internal/govern"
	"commdb/internal/graph"
	"commdb/internal/index"
	"commdb/internal/kwcache"
	"commdb/internal/obs"
	"commdb/internal/prof"
	"commdb/internal/sssp"
)

// Ranker is a community cost aggregate, chosen per query with
// Query.Ranker: it folds a candidate center's per-keyword
// shortest-path distances into one score, lower being better. The
// paper notes its algorithms do not depend on a specific cost function;
// implementations must be monotone in every component (the
// enumeration-order guarantees of both algorithms rely on it), must be
// pure functions safe for concurrent calls, must not retain the
// distance slice, and must have a Name that identifies the aggregate
// (Query.Fingerprint keys on it). See SumRanker, MaxRanker and
// BalancedRanker for the built-ins.
type Ranker = core.Ranker

// SumRanker returns the paper's default cost: the summed
// center→knode distances.
func SumRanker() Ranker { return core.SumRanker() }

// MaxRanker returns the max-distance (radius) aggregate: the largest
// single center→knode distance.
func MaxRanker() Ranker { return core.MaxRanker() }

// BalancedRanker blends the paper's summed-distance cost with the
// worst single center→knode distance — alpha·sum + (1−alpha)·max,
// alpha in [0, 1] — following the combined ranking of Kargar, Golab
// and Szlichta ("Effective Keyword Search in Graphs"): the max term
// penalizes communities whose total is low only because one keyword
// sits far out. Monotone at every alpha, so all enumeration
// guarantees hold.
func BalancedRanker(alpha float64) (Ranker, error) { return core.BalancedRanker(alpha) }

// Limits caps one query's resource consumption: a wall-clock cutoff
// plus budgets on shortest-path work, Dijkstra invocations, top-k
// candidate-list growth, and result count. The zero value (and a zero
// in any field) means unlimited. See the govern package for what each
// resource bounds.
type Limits = govern.Limits

// Resource names the budgeted quantity in an ErrBudgetExhausted.
type Resource = govern.Resource

// Budgeted resources, reported in ErrBudgetExhausted.Resource.
const (
	ResourceRelaxations  = govern.ResourceRelaxations
	ResourceNeighborRuns = govern.ResourceNeighborRuns
	ResourceCanTuples    = govern.ResourceCanTuples
	ResourceHeapBytes    = govern.ResourceHeapBytes
	ResourceResults      = govern.ResourceResults
)

// ErrBudgetExhausted is the iterator stop reason when a resource limit
// tripped; match it with errors.As and inspect Resource/Spent/Limit.
type ErrBudgetExhausted = govern.ErrBudgetExhausted

// ErrDeadlineExceeded is the iterator stop reason when a query ran out
// of wall-clock time. It is context.DeadlineExceeded, so both
// errors.Is(err, commdb.ErrDeadlineExceeded) and comparisons against
// context.DeadlineExceeded work.
var ErrDeadlineExceeded = context.DeadlineExceeded

// ErrCanceled is the iterator stop reason when the query's context was
// canceled. It is context.Canceled.
var ErrCanceled = context.Canceled

// ErrInternal is the stop reason when a panic escaped an internal query
// loop and was recovered at the public boundary — an engine bug, not a
// property of the query. Serving layers treat it as a signal that the
// running snapshot may be bad (see internal/snapshot's probation).
var ErrInternal = errors.New("commdb: internal panic")

// ErrCorruptIndex is returned by Open(WithIndexReader) when the
// serialized index fails validation: truncation, checksum mismatch,
// out-of-bounds or non-monotonic postings, trailing garbage. The error
// is permanent for that artifact — reloading the same bytes cannot
// succeed. Match with errors.Is.
var ErrCorruptIndex = index.ErrCorruptIndex

// ErrIndexMismatch is returned by Open(WithIndexReader) when the index
// is structurally valid but was built over a different graph than the
// one being opened. Match with errors.Is.
var ErrIndexMismatch = index.ErrIndexMismatch

// Query is one l-keyword community query.
type Query struct {
	// Keywords are the l query keywords; each must be a single term.
	Keywords []string
	// Rmax is the radius: every center must reach every core node
	// within this total edge weight.
	Rmax float64
	// Ranker is the ranking aggregate; nil means SumRanker(), the
	// paper's summed distances.
	Ranker Ranker
	// Limits bounds the query's resources; the zero value is
	// unlimited. When a limit trips mid-enumeration the iterator stops
	// early — the results already returned are valid, and Err reports
	// the reason.
	Limits Limits
}

// Normalized returns the canonical form of the query: every keyword
// reduced to its lowercase tokenized term and the keyword list sorted.
// The engine tokenizes keywords the same way before resolving them, and
// reordering keywords only permutes the per-keyword core positions, so
// a normalized query answers with the same community set as the
// original (cores ordered by the sorted keyword list). Limits, Rmax and
// Ranker are preserved unchanged.
//
// A keyword that does not tokenize to exactly one term (which the
// engine rejects) is kept verbatim apart from trimming and lowercasing,
// so normalizing never masks an invalid query.
func (q Query) Normalized() Query {
	kws := make([]string, len(q.Keywords))
	for i, kw := range q.Keywords {
		if terms := fulltext.Tokenize(kw); len(terms) == 1 {
			kws[i] = terms[0]
		} else {
			kws[i] = strings.ToLower(strings.TrimSpace(kw))
		}
	}
	sort.Strings(kws)
	q.Keywords = kws
	return q
}

// Fingerprint returns a canonical identity string for the query's
// answer set: two queries with equal fingerprints enumerate the same
// communities (with cores ordered by the normalized keyword list), so
// the fingerprint is a safe result-cache key. Keyword order and case do
// not affect it. Limits are deliberately excluded — they bound a
// query's resources, not its answer.
//
// The encoding is injective: keywords are length-prefixed so no two
// distinct keyword lists collide.
func (q Query) Fingerprint() string { return q.Normalized().fingerprint() }

// fingerprint is Fingerprint for an already normalized query.
func (n Query) fingerprint() string {
	var b strings.Builder
	b.WriteString("q1|rmax=")
	b.WriteString(strconv.FormatFloat(n.Rmax, 'g', -1, 64))
	b.WriteString("|cost=")
	if n.Ranker == nil {
		b.WriteString(SumRanker().Name())
	} else {
		b.WriteString(n.Ranker.Name())
	}
	for _, kw := range n.Keywords {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(len(kw)))
		b.WriteByte(':')
		b.WriteString(kw)
	}
	return b.String()
}

// Searcher answers community queries over one graph. Every query first
// projects a small query-specific subgraph G_P and runs the paper's
// algorithms on it, with the results of running them on the whole
// graph (Section VI). An indexed Searcher (Open with WithIndex or
// WithIndexReader) finds G_P from the paper's inverted indexes without
// touching the graph; a plain one finds it from the per-keyword
// shortest-path runs over the graph that engine init has always paid.
//
// A Searcher is safe for concurrent use; each query gets its own
// engine, and all queries share one pool of graph-sized state
// (workspaces, shortest-path results, the aggregate table), so a plain
// query allocates no per-query O(n) arrays in steady state.
type Searcher struct {
	g  *Graph
	ft *fulltext.Index
	ix *index.Index

	// pool recycles graph-sized query state across queries and across
	// the worker goroutines of one parallel query.
	pool *sssp.Pool
	// par is the per-query parallelism degree; 1 means strictly
	// sequential execution.
	par int
	// kc, when non-nil, serves precomputed keyword neighbor sets to
	// eligible sessions (un-indexed execution, no work-shape limits,
	// Rmax within the store radius).
	kc *kwcache.Store
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	buildIndex  bool
	indexRmax   float64
	indexReader io.Reader
	parallelism int
	kwRadius    float64
	kwEnable    bool
}

// WithIndex builds the paper's invertedN/invertedE indexes for radii up
// to maxRmax, so queries run on projected subgraphs. Building takes one
// bounded shortest-path pass per distinct term; it is a one-time cost
// amortized over all queries. Mutually exclusive with WithIndexReader.
func WithIndex(maxRmax float64) Option {
	return func(c *openConfig) {
		c.buildIndex = true
		c.indexRmax = maxRmax
	}
}

// WithIndexReader loads an index previously saved with WriteIndex,
// built over exactly the graph being opened. Mutually exclusive with
// WithIndex.
func WithIndexReader(r io.Reader) Option {
	return func(c *openConfig) { c.indexReader = r }
}

// WithParallelism sets how many worker goroutines one query may use:
// the per-keyword Dijkstras of engine init fan out across them, and
// community materialization runs on them while the enumeration
// produces the next cores. Results — order, content, Err — are
// identical at every setting; only wall-clock changes.
//
// n <= 0 selects the default, runtime.GOMAXPROCS(0). n == 1 forces the
// strictly sequential engine.
func WithParallelism(n int) Option {
	return func(c *openConfig) { c.parallelism = n }
}

// WithKeywordArtifactStore attaches an empty in-memory artifact store
// at the given radius — the largest query Rmax the artifacts will
// cover — to be filled with WarmKeywords. Only un-indexed searchers
// consult it.
func WithKeywordArtifactStore(radius float64) Option {
	return func(c *openConfig) {
		c.kwEnable = true
		c.kwRadius = radius
	}
}

// Open returns a Searcher over g. With no options it scans the graph
// per query and parallelizes each query over runtime.GOMAXPROCS(0)
// workers; see WithIndex, WithIndexReader and WithParallelism.
func Open(g *Graph, opts ...Option) (*Searcher, error) {
	if g == nil {
		return nil, fmt.Errorf("commdb: Open: nil graph")
	}
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.buildIndex && cfg.indexReader != nil {
		return nil, fmt.Errorf("commdb: WithIndex and WithIndexReader are mutually exclusive")
	}
	par := cfg.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	s := &Searcher{g: g, pool: sssp.NewPoolFor(g.NumNodes()), par: par}
	switch {
	case cfg.buildIndex:
		ix, err := index.Build(g, index.BuildOptions{R: cfg.indexRmax})
		if err != nil {
			return nil, err
		}
		s.ix, s.ft = ix, ix.Fulltext()
	case cfg.indexReader != nil:
		ix, err := index.ReadInto(cfg.indexReader, g)
		if err != nil {
			return nil, err
		}
		s.ix, s.ft = ix, ix.Fulltext()
	default:
		s.ft = fulltext.Build(g)
	}
	if cfg.kwEnable {
		kc, err := kwcache.New(s.ft, cfg.kwRadius)
		if err != nil {
			return nil, err
		}
		s.kc = kc
	}
	return s, nil
}

// Indexed reports whether the searcher projects queries through the
// inverted indexes.
func (s *Searcher) Indexed() bool { return s.ix != nil }

// Graph returns the searched graph.
func (s *Searcher) Graph() *Graph { return s.g }

// Parallelism reports the searcher's per-query worker count.
func (s *Searcher) Parallelism() int { return s.par }

// IndexRadius reports the largest Rmax the searcher's index supports,
// or 0 when un-indexed. Snapshot reloads use it as a validation gate: a
// replacement index must support at least the radius the serving one
// does, or queries that worked before the swap would start failing.
func (s *Searcher) IndexRadius() float64 {
	if s.ix == nil {
		return 0
	}
	return s.ix.R()
}

// KeywordFrequency reports the KWF of a term: the fraction of graph
// nodes containing it.
func (s *Searcher) KeywordFrequency(term string) float64 { return s.ft.KWF(term) }

// WarmKeywords computes keyword neighbor-set artifacts for every given
// keyword not already cached, reporting how many were added. Keywords
// that do not tokenize to a single term are skipped. A no-op (0) on a
// searcher without an artifact store. Safe to call concurrently with
// serving: queries in flight keep seeing a consistent store.
func (s *Searcher) WarmKeywords(keywords []string) int {
	if s.kc == nil {
		return 0
	}
	return s.kc.Warm(keywords)
}

// KeywordArtifactStats describes the searcher's keyword artifact
// store: its coverage and how often engine init was served from it.
type KeywordArtifactStats struct {
	// Enabled reports whether the searcher has a store at all.
	Enabled bool `json:"enabled"`
	// Terms is the number of cached keywords.
	Terms int `json:"terms"`
	// Radius is the store's artifact radius: queries with Rmax beyond
	// it fall back to live execution.
	Radius float64 `json:"radius"`
	// Hits and Misses count full-set probes served from artifacts vs
	// fallen back to live Dijkstras.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Bytes is the store's resident footprint.
	Bytes int64 `json:"bytes"`
}

// KeywordArtifacts reports the artifact store's coverage and hit
// counters; Enabled is false on a searcher without a store.
func (s *Searcher) KeywordArtifacts() KeywordArtifactStats {
	if s.kc == nil {
		return KeywordArtifactStats{}
	}
	return KeywordArtifactStats{
		Enabled: true,
		Terms:   s.kc.Len(),
		Radius:  s.kc.Radius(),
		Hits:    s.kc.Hits(),
		Misses:  s.kc.Misses(),
		Bytes:   s.kc.Bytes(),
	}
}

// session holds one query's execution state: the engine, which runs on
// the query's projection G_P, plus the mapping back to the searcher's
// graph.
type session struct {
	s   *Searcher
	eng *core.Engine
	sub *graph.Subgraph
	// tr is the query's trace (nil when the context carries none).
	tr *obs.Trace
}

func (s *Searcher) newSession(ctx context.Context, algo Algorithm, q Query) (*session, error) {
	if len(q.Keywords) == 0 {
		return nil, core.ErrNoKeywords
	}
	// NaN compares false against everything, so `< 0` alone would let
	// NaN (and +Inf) through and poison every distance comparison.
	if math.IsNaN(q.Rmax) || math.IsInf(q.Rmax, 0) {
		return nil, fmt.Errorf("commdb: non-finite Rmax %v", q.Rmax)
	}
	if q.Rmax < 0 {
		return nil, fmt.Errorf("commdb: negative Rmax %v", q.Rmax)
	}
	// Identity before any work, so a query that fails below (radius,
	// projection, unknown keyword) still has a self-describing trace.
	tr := obs.FromContext(ctx)
	if tr != nil {
		n := q.Normalized()
		tr.SetIdentity(obs.Identity{
			Fingerprint: n.fingerprint(),
			Keywords:    n.Keywords,
			Rmax:        q.Rmax,
			Algorithm:   algo.String(),
			Indexed:     s.ix != nil,
			Parallelism: s.par,
		})
	}
	bud := govern.New(ctx, q.Limits)
	var proj *index.Projection
	var err error
	if s.ix != nil {
		if q.Rmax > s.ix.R() {
			return nil, fmt.Errorf("commdb: Rmax %v exceeds the index radius %v given to WithIndex", q.Rmax, s.ix.R())
		}
		proj, err = s.ix.ProjectTrace(q.Keywords, q.Rmax, bud, tr)
	} else {
		proj, err = s.projectPlain(q, bud, tr)
	}
	if err != nil {
		return nil, err
	}
	sess := &session{s: s, sub: proj.Sub, tr: tr}
	endInit := tr.StartSpan("engine_init")
	// Projected graphs are small: the engine finds keyword nodes by
	// scanning, and serves its full sets live.
	eng, err := core.NewEngineCfg(proj.Sub.G, nil, q.Keywords, q.Rmax,
		core.EngineConfig{Pool: s.pool, Parallelism: s.par})
	if err != nil {
		return nil, err
	}
	eng.SetRanker(q.Ranker)
	eng.SetBudget(bud)
	eng.SetTrace(tr)
	// Fan the per-keyword full-set Dijkstras across the workers now,
	// inside the engine_init span; the enumerators find them cached.
	eng.PrecomputeNeighborSets()
	endInit()
	sess.eng = eng
	return sess, nil
}

// projectPlain is a plain query's projection (Section VI without the
// index): the l full keyword-set runs over the searcher's graph, fanned
// across the workers and charged and traced as engine runs, then
// index.ProjectSets. The runs go to index.TailRadius, the widened
// radius the projection needs, and the keyword artifact store serves
// them when the query carries no work-shape limits: an artifact hit
// performs none of the live run's relaxation work, so budgets bounding
// that work would trip at different points than cold execution.
//
// A plain query's stop reason belongs to its iterator, as it always
// has: when the budget trips here, the query gets the empty projection
// and its first Next reports the reason.
func (s *Searcher) projectPlain(q Query, bud *govern.Budget, tr *obs.Trace) (*index.Projection, error) {
	defer tr.StartSpan("project")()
	cfg := core.EngineConfig{Pool: s.pool, Parallelism: s.par}
	if s.kc != nil && q.Limits.MaxRelaxations == 0 && q.Limits.MaxHeapBytes == 0 {
		cfg.Neighbors = s.kc
	}
	eng, err := core.NewEngineCfg(s.g, s.ft, q.Keywords, index.TailRadius(q.Rmax, s.g.NumNodes()), cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	eng.SetBudget(bud)
	eng.SetTrace(tr)
	proj, err := index.ProjectSets(s.g, eng.FullSets(), q.Rmax, s.pool, bud, tr)
	if err != nil && bud.Err() != nil {
		return index.Empty(s.g), nil
	}
	return proj, err
}

// recoverQueryPanic converts a panic escaping an internal query loop
// into an error at the public boundary, so an engine bug fails one
// query instead of the process.
func recoverQueryPanic(p any) error {
	return fmt.Errorf("%w: %v", ErrInternal, p)
}

// mapBack translates a community from the projected ID space to the
// searcher's graph and re-induces its edges over the full graph (a
// projection preserves all distances but may omit induced edges that
// lie on no short center→keyword path).
func (sess *session) mapBack(r *Community) *Community {
	toParent := sess.sub.ToParent
	mapped := &Community{
		Core:   mapIDs(r.Core, toParent),
		Cost:   r.Cost,
		Knodes: mapIDs(r.Knodes, toParent),
		Cnodes: mapIDs(r.Cnodes, toParent),
		Pnodes: mapIDs(r.Pnodes, toParent),
		Nodes:  mapIDs(r.Nodes, toParent),
	}
	// ToParent is ascending and GetCommunity emits its node lists sorted,
	// so the mapped ones are too. Re-induce edges over the parent graph.
	for _, u := range mapped.Nodes {
		mapped.Edges = graph.AppendInducedEdges(mapped.Edges, sess.s.g, u, mapped.Nodes)
	}
	return mapped
}

// mapBackCore translates one core to the searcher's graph.
func (sess *session) mapBackCore(cc CoreCost) CoreCost {
	return CoreCost{Core: mapIDs(cc.Core, sess.sub.ToParent), Cost: cc.Cost}
}

func mapIDs(in []NodeID, toParent []NodeID) []NodeID {
	out := make([]NodeID, len(in))
	for i, v := range in {
		out[i] = toParent[v]
	}
	return out
}

// Algorithm selects which of the paper's enumerations a search runs.
type Algorithm int

const (
	// AlgoAll is COMM-all (Algorithm 1): every community, polynomial
	// delay, duplication-free. The first community returned is a
	// minimum-cost one; the rest follow in enumeration (not ranking)
	// order.
	AlgoAll Algorithm = iota
	// AlgoTopK is COMM-k (Algorithm 5): communities in non-decreasing
	// cost order, with no fixed k — every Next produces the next best
	// community, so k can be enlarged interactively at no extra cost.
	AlgoTopK
)

// String names the algorithm as labeled in traces.
func (a Algorithm) String() string {
	if a == AlgoTopK {
		return "comm_k"
	}
	return "comm_all"
}

// enumerator is the common face of the core enumerators.
type enumerator interface {
	Next() (*Community, bool)
	NextCore() (CoreCost, bool)
	Err() error
}

// Iterator streams one query's communities. Both algorithms return the
// same implementation (*Results); the interface is the contract.
//
// When the query carries Limits or a cancelable context, Next may
// return ok == false before the query is exhausted; Err then reports
// why, and the communities already returned are a valid partial set
// (for AlgoTopK, a valid ranking prefix).
type Iterator interface {
	// Next returns the next community, or ok == false when the query is
	// exhausted or stopped early (see Err).
	Next() (*Community, bool)
	// NextCore advances without materializing the community subgraph;
	// cheaper when only cores and costs are needed.
	NextCore() (CoreCost, bool)
	// Err reports why the enumeration stopped: nil after a clean
	// exhaustion, or the stop reason — ErrCanceled,
	// ErrDeadlineExceeded, an ErrBudgetExhausted (match with
	// errors.As), or a recovered internal panic. It is meaningful once
	// Next or NextCore has returned ok == false.
	Err() error
	// Close releases the query's resources: it stops any in-flight
	// parallel materialization and returns pooled workspaces. Exhausting
	// the iterator closes it implicitly; Close is idempotent and returns
	// Err.
	Close() error
}

// Results is the iterator over one query's communities, returned by
// All/TopK/SearchCtx. See Iterator for the contract.
//
// On a searcher with parallelism >= 2 the first Next starts the
// materialization pipeline: enumeration keeps producing cores in paper
// order on one goroutine while GetCommunity calls fan out across
// workers, and a reorder buffer preserves the exact sequential
// emission order. Callers that abandon a Results mid-stream must call
// Close to stop those workers; iterating to exhaustion closes
// implicitly.
type Results struct {
	sess *session
	enum enumerator
	pipe *core.Pipeline

	err    error // panic recovered at the public boundary
	done   bool  // enumeration finished (naturally or stopped)
	closed bool  // resources released
	// enumStart is when a traced query first advanced: the start of its
	// enumerate span, which release closes.
	enumStart time.Time
}

// SearchCtx starts an enumeration of q under algo, bound to ctx:
// canceling ctx (or hitting its deadline) stops the enumeration within
// a bounded number of Next calls, with the reason readable from Err.
func (s *Searcher) SearchCtx(ctx context.Context, algo Algorithm, q Query) (it *Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			it, err = nil, recoverQueryPanic(p)
		}
	}()
	sess, err := s.newSession(ctx, algo, q)
	if err != nil {
		return nil, err
	}
	r := &Results{sess: sess}
	if algo == AlgoTopK {
		r.enum = core.NewTopK(sess.eng)
	} else {
		r.enum = core.NewAll(sess.eng)
	}
	return r, nil
}

// All starts a COMM-all enumeration (see AlgoAll).
func (s *Searcher) All(q Query) (*Results, error) {
	return s.SearchCtx(context.Background(), AlgoAll, q)
}

// AllCtx is All bound to a context.
func (s *Searcher) AllCtx(ctx context.Context, q Query) (*Results, error) {
	return s.SearchCtx(ctx, AlgoAll, q)
}

// TopK starts a COMM-k enumeration (see AlgoTopK).
func (s *Searcher) TopK(q Query) (*Results, error) {
	return s.SearchCtx(context.Background(), AlgoTopK, q)
}

// TopKCtx is TopK bound to a context.
func (s *Searcher) TopKCtx(ctx context.Context, q Query) (*Results, error) {
	return s.SearchCtx(ctx, AlgoTopK, q)
}

// noteNext marks the start of a traced query's enumeration on its
// first advance.
func (it *Results) noteNext() {
	if it.sess.tr != nil && it.enumStart.IsZero() {
		it.enumStart = time.Now()
	}
}

// startPipeline begins parallel materialization when the searcher is
// parallel; once started, the wrapped enumerator belongs to the
// pipeline's producer goroutine and must not be touched directly.
func (it *Results) startPipeline() {
	if it.pipe != nil || it.done {
		return
	}
	if par := it.sess.eng.Parallelism(); par >= 2 {
		it.pipe = core.NewPipeline(it.sess.eng, it.enum, par)
	}
}

// Err reports why the enumeration stopped; see Iterator.
func (it *Results) Err() error {
	if it.err != nil {
		return it.err
	}
	if it.pipe != nil {
		return it.pipe.Err()
	}
	return it.enum.Err()
}

// Next returns the next community, or ok == false when the query is
// exhausted or stopped early (see Err).
func (it *Results) Next() (r *Community, ok bool) {
	if it.err != nil || it.done {
		return nil, false
	}
	defer func() {
		if p := recover(); p != nil {
			it.err = recoverQueryPanic(p)
			r, ok = nil, false
		}
	}()
	it.noteNext()
	it.startPipeline()
	var r0 *Community
	if it.pipe != nil {
		_, r0, ok = it.pipe.Next()
	} else {
		r0, ok = it.enum.Next()
	}
	if !ok {
		it.finish()
		return nil, false
	}
	r = it.sess.mapBack(r0)
	it.sess.tr.Emission()
	return r, true
}

// NextCore advances without materializing the community subgraph;
// cheaper when only cores and costs are needed. (Once Next has started
// the parallel pipeline, the pipeline still materializes lookahead
// communities; NextCore then returns their cores in order.)
func (it *Results) NextCore() (cc CoreCost, ok bool) {
	if it.err != nil || it.done {
		return CoreCost{}, false
	}
	defer func() {
		if p := recover(); p != nil {
			it.err = recoverQueryPanic(p)
			cc, ok = CoreCost{}, false
		}
	}()
	it.noteNext()
	if it.pipe != nil {
		cc, _, ok = it.pipe.Next()
	} else {
		cc, ok = it.enum.NextCore()
	}
	if !ok {
		it.finish()
		return CoreCost{}, false
	}
	cc = it.sess.mapBackCore(cc)
	it.sess.tr.Emission()
	return cc, true
}

// finish records natural exhaustion and releases resources.
func (it *Results) finish() {
	it.done = true
	it.release()
}

// Close releases the query's resources; see Iterator. It is safe to
// call mid-stream (the remaining communities are discarded) and after
// exhaustion (a no-op beyond returning Err).
func (it *Results) Close() error {
	it.done = true
	it.release()
	return it.Err()
}

// release tears down the pipeline, closes the enumerate span and
// returns the query's pooled state — exactly once.
func (it *Results) release() {
	if it.closed {
		return
	}
	it.closed = true
	if it.pipe != nil {
		it.pipe.Close()
	}
	if !it.enumStart.IsZero() {
		it.sess.tr.RecordSpan("enumerate", it.enumStart)
	}
	if it.err != nil {
		it.sess.eng.Abandon() // a recovered panic: recycle nothing
		return
	}
	it.sess.eng.Close()
}

// Collect drains up to max communities from the iterator (max <= 0
// means all of them), closing it when the enumeration ends. The error
// is the iterator's Err: nil when max was reached or the query was
// cleanly exhausted, the stop reason when governance ended the query
// early — in which case the communities returned alongside it are a
// valid partial set.
func (it *Results) Collect(max int) ([]*Community, error) {
	var out []*Community
	for max <= 0 || len(out) < max {
		r, ok := it.Next()
		if !ok {
			return out, it.Err()
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteIndex serializes an indexed searcher's invertedE index so the
// expensive build can be paid once; pair it with WriteGraph. Returns an
// error on an un-indexed searcher.
func (s *Searcher) WriteIndex(w io.Writer) error {
	if s.ix == nil {
		return fmt.Errorf("commdb: searcher has no index to write")
	}
	return s.ix.Write(w)
}

// IndexBytes reports the logical size of the searcher's inverted
// indexes (0 when un-indexed), the statistic the paper reports against
// the raw dataset size.
func (s *Searcher) IndexBytes() int64 {
	if s.ix == nil {
		return 0
	}
	return s.ix.Bytes()
}

// Footprint is the exact memory-accounting tree reported by Footprint
// methods across the system: a named structure with its retained byte
// size, cardinality, and parts whose bytes always sum to the total.
// See internal/prof for the accounting model.
type Footprint = prof.Footprint

// Footprint reports the searcher's exact retained memory: the database
// graph plus either the full inverted-index pair (indexed searchers;
// invertedN appears as a part of the index) or the standalone fulltext
// index (plain searchers). Structures are immutable, so repeated calls
// are cheap.
func (s *Searcher) Footprint() Footprint {
	parts := []Footprint{s.g.Footprint()}
	if s.ix != nil {
		parts = append(parts, s.ix.Footprint())
	} else {
		parts = append(parts, s.ft.Footprint())
	}
	if s.kc != nil {
		parts = append(parts, prof.Footprint{
			Name: "kwcache", Bytes: s.kc.Bytes(), Items: int64(s.kc.Len()),
		})
	}
	f := prof.Group("searcher", parts...)
	f.Items = int64(s.g.NumNodes())
	return f
}
