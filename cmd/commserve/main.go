// Command commserve serves community queries over HTTP: the
// polynomial-delay enumerators behind a concurrent service with
// admission control, a top-k result cache, and NDJSON streaming.
//
// Usage:
//
//	commserve -graph dblp.graph -index -rmax-max 8 -addr :8080
//	commserve -example paper -addr :8080
//
// Endpoints:
//
//	POST /v1/search/topk   JSON in, JSON out (cached, coalesced)
//	POST /v1/search/all    JSON in, NDJSON stream out (one community
//	                       per line, then a trailer with the stop reason)
//	GET  /healthz          liveness
//	GET  /statsz           serving counters + latency histogram
//	GET  /metricsz         the same plus engine counters, as Prometheus text
//
// Requests may set "trace": true for EXPLAIN mode: the response (topk
// body or stream trailer) carries the query's structured trace. With
// -log every query is logged as one structured line whose query ID
// matches the X-Query-Id response header.
//
// Observability extras: GET /debug/memz reports the exact memory
// footprint of every live epoch (graph CSR, index postings, fulltext,
// dictionary, result cache) plus runtime heap stats — the same numbers
// the commdb_mem_* gauge families export on /metricsz. -pprof mounts
// the standard net/http/pprof handlers under /debug/pprof/, behind the
// same bearer token as /admin/reload (profiles leak symbol names, so
// they are admin surface); it is the one profiling surface — keeping
// profiles from before an incident is a scraper's job.
//
// To reproduce a slow or failed query, take it from GET /debug/queries:
// its capture keeps the query's fingerprint, keywords, rmax, k and full
// trace.
//
// Per-request limits are clamped to the -max-visited and -max-results
// flags and to a 30s wall-clock ceiling, so one client cannot
// monopolize the query governor's budget. On SIGINT/SIGTERM the
// server stops admitting, cancels in-flight queries through the
// governor, drains streams with correct trailers, then exits.
//
// When serving from files (-graph), the server hot-reloads: SIGHUP, an
// authenticated POST /admin/reload (-admin-token, or the
// COMMSERVE_ADMIN_TOKEN environment variable), or -reload-watch (which
// polls the artifact's mtime) all load a fresh epoch from the same
// paths and swap it in atomically. In-flight queries — including
// NDJSON streams — finish on the epoch they started on; a corrupt or
// truncated artifact is rejected with the current epoch still serving.
//
// Delta mode serves a live database instead of baked artifacts: -db
// loads an NDJSON dump (datagen -db-out) and -mutation-log tails an op
// stream, applying each quiet-period batch as a bounded incremental
// index update and swapping the result in as a fresh epoch — same
// fail-closed loader, probation, and zero-dropped-queries guarantees
// as a file reload. Maintainer counters surface as the "deltas" block
// in /statsz and the commdb_delta_* families in /metricsz:
//
//	commserve -db base.ndjson -mutation-log muts.ndjson -rmax-max 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"commdb"
	"commdb/internal/server"
	"commdb/internal/snapshot"
)

// maxTimeout is every query's wall-clock ceiling.
const maxTimeout = 30 * time.Second

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		graphPath   = flag.String("graph", "", "graph file written by cmd/datagen")
		indexPath   = flag.String("index-file", "", "index file written by cmd/indexbuild (implies projected search)")
		example     = flag.String("example", "", "built-in example graph: paper or intro")
		useIndex    = flag.Bool("index", false, "build inverted indexes and serve projected searches")
		rmaxMax     = flag.Float64("rmax-max", 8, "index radius for -index; also the largest Rmax indexed queries may use")
		parallelism = flag.Int("parallelism", 0, "worker goroutines per query (0 = GOMAXPROCS, 1 = sequential)")

		maxConcurrent = flag.Int("max-concurrent", 0, "concurrently executing queries (0 = GOMAXPROCS)")
		maxQueue      = flag.Int("max-queue", 0, "requests allowed to wait for a slot (0 = 2x max-concurrent)")
		queueWait     = flag.Duration("queue-wait", 5*time.Second, "longest a request may wait for a slot")
		cacheEntries  = flag.Int("cache-entries", 256, "top-k result cache entries (-1 disables)")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "top-k result cache approximate byte bound")

		maxVisited = flag.Int64("max-visited", 0, "per-query shortest-path work ceiling (0 = unlimited)")
		maxResults = flag.Int64("max-results", 100000, "per-query result-count ceiling (0 = unlimited)")

		shutdownGrace = flag.Duration("shutdown-grace", 10*time.Second, "drain budget on SIGINT/SIGTERM")

		adminToken  = flag.String("admin-token", "", "bearer token for POST /admin/reload (default $COMMSERVE_ADMIN_TOKEN; empty disables the endpoint)")
		reloadWatch = flag.Duration("reload-watch", 0, "poll the served artifact's mtime at this interval and reload on change (0 disables)")

		dbPath        = flag.String("db", "", "NDJSON database dump (datagen -db-out); serve its graph + index in-process (delta mode)")
		mutationLog   = flag.String("mutation-log", "", "mutation-log file to tail (requires -db); each batch becomes a fresh epoch")
		deltaDebounce = flag.Duration("delta-debounce", 500*time.Millisecond, "quiet period before a tailed mutation batch is applied")

		logQueries  = flag.Bool("log", false, "log one structured line per query (JSON on stderr)")
		pprofEnable = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (requires the admin token)")
	)
	flag.Parse()
	if *adminToken == "" {
		*adminToken = os.Getenv("COMMSERVE_ADMIN_TOKEN")
	}
	var logger *slog.Logger
	if *logQueries {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	cfg := server.Config{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueWait:     *queueWait,
		CacheEntries:  *cacheEntries,
		CacheBytes:    *cacheBytes,
		MaxLimits: commdb.Limits{
			Timeout:        maxTimeout,
			MaxRelaxations: *maxVisited,
			MaxResults:     *maxResults,
		},
		Logger:     logger,
		Pprof:      *pprofEnable,
		AdminToken: *adminToken,
	}
	if err := run(runOptions{
		addr: *addr, graphPath: *graphPath, indexPath: *indexPath, example: *example,
		dbPath: *dbPath, mutationLog: *mutationLog, deltaDebounce: *deltaDebounce,
		useIndex: *useIndex, rmaxMax: *rmaxMax, parallelism: *parallelism,
		cfg: cfg, grace: *shutdownGrace, watchEvery: *reloadWatch,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "commserve:", err)
		os.Exit(1)
	}
}

// runOptions carries the resolved flags into run.
type runOptions struct {
	addr, graphPath, indexPath, example string
	dbPath, mutationLog                 string
	deltaDebounce                       time.Duration
	useIndex                            bool
	rmaxMax                             float64
	parallelism                         int
	cfg                                 server.Config
	grace, watchEvery                   time.Duration
}

func run(o runOptions) error {
	cfg := o.cfg
	var (
		s      *commdb.Searcher
		loader snapshot.Loader
		pipe   *deltaPipeline
		err    error
	)
	switch {
	case o.dbPath != "":
		if o.graphPath != "" || o.example != "" || o.indexPath != "" {
			return fmt.Errorf("-db is mutually exclusive with -graph, -example and -index-file")
		}
		pipe, err = newDeltaPipeline(o.dbPath, o.rmaxMax)
		if err != nil {
			return err
		}
		loader = pipe.loader(o.parallelism)
		if s, err = loader(nil); err != nil {
			return err
		}
		cfg.Deltas = pipe.m.Stats
		cfg.DeltaMem = pipe.m.Footprint
	case o.mutationLog != "":
		return fmt.Errorf("-mutation-log requires -db")
	default:
		s, loader, err = buildSearcher(o.graphPath, o.indexPath, o.example, o.useIndex, o.rmaxMax, o.parallelism)
		if err != nil {
			return err
		}
	}
	log.Printf("graph: %d nodes, %d edges (indexed=%v)", s.Graph().NumNodes(), s.Graph().NumEdges(), s.Indexed())

	// Hot reload needs something to reload from — an on-disk artifact or
	// the delta pipeline's in-memory pair; the built-in example graphs
	// have neither, so they serve a single fixed epoch.
	var snaps *snapshot.Manager
	if loader != nil {
		snaps = snapshot.New(s, snapshot.Config{Load: loader, Logf: log.Printf})
		cfg.Snapshots = snaps
	}

	app := server.New(s, cfg)
	httpSrv := &http.Server{Addr: o.addr, Handler: app.Handler()}

	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	if snaps != nil && o.watchEvery > 0 && o.dbPath == "" {
		// Watch the artifact the reload actually re-reads: the index file
		// when serving one, otherwise the graph file. indexbuild publishes
		// by atomic rename, so a changed mtime is a complete artifact.
		// (Delta mode has no artifact file; its epochs come from the
		// mutation log instead.)
		watchPath := o.indexPath
		if watchPath == "" {
			watchPath = o.graphPath
		}
		log.Printf("watching %s (every %v)", watchPath, o.watchEvery)
		go snaps.Watch(watchCtx, watchPath, o.watchEvery)
	}
	if pipe != nil && o.mutationLog != "" {
		log.Printf("tailing %s (debounce %v)", o.mutationLog, o.deltaDebounce)
		go func() {
			// The follow loop ending is not fatal to serving: the last
			// good epoch keeps answering queries (fail static).
			if err := pipe.follow(watchCtx, o.mutationLog, o.deltaDebounce, snaps); err != nil {
				log.Printf("delta: follow loop stopped: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", o.addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	hupc := make(chan os.Signal, 1)
	if snaps != nil {
		signal.Notify(hupc, syscall.SIGHUP)
	}
loop:
	for {
		select {
		case err := <-errc:
			return err
		case <-hupc:
			log.Printf("caught SIGHUP; reloading")
			go func() {
				if outcome, err := snaps.Reload(context.Background()); err != nil {
					log.Printf("reload rejected (%s): %v", outcome, err)
				} else {
					log.Printf("reload complete: epoch %d serving", snaps.Current())
				}
			}()
		case sig := <-sigc:
			log.Printf("caught %v; draining (grace %v)", sig, o.grace)
			break loop
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	// App first: stop admitting and cancel in-flight queries so their
	// streams finish with trailers; then close the listeners.
	if err := app.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}

// buildSearcher boots the searcher flavour the flags select — saved
// index, freshly built index, or per-query scans — by running its
// snapshot loader once, and returns that loader so a reload produces
// the same flavour the process booted with. The built-in examples have
// no artifact to reload from: they get a searcher and a nil loader. The
// searcher's workspace pool is shared by concurrent requests and by
// each query's parallel workers.
func buildSearcher(graphPath, indexPath, example string, useIndex bool, rmaxMax float64, parallelism int) (*commdb.Searcher, snapshot.Loader, error) {
	opts := []commdb.Option{commdb.WithParallelism(parallelism)}
	var loader snapshot.Loader
	switch {
	case graphPath != "" && example != "":
		return nil, nil, fmt.Errorf("-graph and -example are mutually exclusive")
	case graphPath != "" && indexPath != "":
		loader = snapshot.GraphIndexFileLoader(graphPath, indexPath, opts...)
	case graphPath != "":
		r := 0.0
		if useIndex {
			r = rmaxMax
		}
		loader = snapshot.GraphFileLoader(graphPath, r, opts...)
	default:
		g, err := exampleGraph(example)
		if err != nil {
			return nil, nil, err
		}
		if indexPath != "" {
			s, err := snapshot.IndexFileLoader(g, indexPath, opts...)(nil)
			return s, nil, err
		}
		if useIndex {
			opts = append(opts, commdb.WithIndex(rmaxMax))
		}
		s, err := commdb.Open(g, opts...)
		return s, nil, err
	}
	s, err := loader(nil)
	return s, loader, err
}

func exampleGraph(example string) (*commdb.Graph, error) {
	switch example {
	case "paper":
		g, _ := commdb.PaperExampleGraph()
		return g, nil
	case "intro":
		g, _ := commdb.IntroExampleGraph()
		return g, nil
	default:
		return nil, fmt.Errorf("provide -graph FILE or -example paper|intro")
	}
}
