// Command commsearch answers l-keyword community queries over a
// database graph, printing each community's cost, core, centers and
// size — the paper's end-user experience.
//
// Usage:
//
//	commsearch -graph dblp.graph -keywords database,graph -rmax 6 -top 10
//	commsearch -graph dblp.graph -keywords web,parallel -rmax 6 -all -max 100
//	commsearch -example paper -keywords a,b,c -rmax 8 -all
//
// With -index the searcher first builds the paper's inverted indexes
// and runs the query on a projected subgraph; results are identical and
// much faster on large graphs.
//
// Queries can be governed: -timeout bounds wall-clock time,
// -max-visited bounds shortest-path work, and -max-results caps the
// answer count. A governed query that hits a limit still prints every
// community found so far, followed by the stop reason.
//
// With -json the results stream as NDJSON — one community record per
// line plus a trailer carrying the stop reason — in exactly the schema
// of cmd/commserve's POST /v1/search/all endpoint, so scripts consume
// CLI and service output interchangeably.
//
// With -explain the query runs in EXPLAIN mode: after the results the
// tool prints the query's trace — per-stage spans (projection, engine
// init, enumeration), engine counters (Dijkstra visits, heap traffic,
// Neighbor runs, candidate-list growth) and the delay before each
// community's emission. Combined with -json, the trace summary rides
// in the NDJSON trailer instead.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"commdb"
	"commdb/internal/obs"
	"commdb/internal/server"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph file written by cmd/datagen")
		indexPath  = flag.String("index-file", "", "index file written by cmd/indexbuild (implies projected search)")
		example    = flag.String("example", "", "built-in example graph: paper or intro")
		keywords   = flag.String("keywords", "", "comma-separated query keywords (required)")
		rmax       = flag.Float64("rmax", 6, "community radius Rmax")
		top        = flag.Int("top", 0, "return the top-k communities by cost")
		all        = flag.Bool("all", false, "enumerate all communities")
		max        = flag.Int("max", 1000, "cap on -all output (0 = unlimited)")
		useIndex   = flag.Bool("index", false, "build inverted indexes and search a projected subgraph")
		verbose    = flag.Bool("v", false, "print every community node, not just a summary")
		jsonOut    = flag.Bool("json", false, "emit NDJSON (one community record per line plus a trailer, the serving endpoint's schema)")
		replMode   = flag.Bool("repl", false, "interactive session: issue queries and ask for 'more'")
		explain    = flag.Bool("explain", false, "print the query's trace after the results: per-stage spans, engine counters, inter-emission delays")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per query, e.g. 50ms (0 = unlimited)")
		maxVisited = flag.Int64("max-visited", 0, "budget on shortest-path work units per query (0 = unlimited)")
		maxResults = flag.Int64("max-results", 0, "budget on returned communities per query (0 = unlimited)")
		parallel   = flag.Int("parallelism", 0, "worker goroutines per query (0 = GOMAXPROCS, 1 = sequential)")
	)
	flag.Parse()
	lim := commdb.Limits{Timeout: *timeout, MaxRelaxations: *maxVisited, MaxResults: *maxResults}
	if *replMode {
		if err := runRepl(*graphPath, *example, *indexPath, *useIndex, *rmax, *parallel, lim); err != nil {
			fmt.Fprintln(os.Stderr, "commsearch:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*graphPath, *example, *indexPath, *keywords, *rmax, *top, *all, *max, *useIndex, *verbose, *jsonOut, *explain, *parallel, lim); err != nil {
		fmt.Fprintln(os.Stderr, "commsearch:", err)
		os.Exit(1)
	}
}

func runRepl(graphPath, example, indexPath string, useIndex bool, rmax float64, parallel int, lim commdb.Limits) error {
	g, err := loadGraph(graphPath, example)
	if err != nil {
		return err
	}
	s, err := newSearcher(g, indexPath, useIndex, rmax, parallel)
	if err != nil {
		return err
	}
	return repl(g, s, rmax, lim, os.Stdin, os.Stdout)
}

// stopReason renders an iterator stop reason for the terminal.
func stopReason(err error) string {
	var be commdb.ErrBudgetExhausted
	switch {
	case errors.As(err, &be):
		return fmt.Sprintf("budget exhausted on %s (spent %d, limit %d)", be.Resource, be.Spent, be.Limit)
	case errors.Is(err, commdb.ErrDeadlineExceeded):
		return "deadline exceeded"
	case errors.Is(err, commdb.ErrCanceled):
		return "canceled"
	default:
		return err.Error()
	}
}

// newSearcher picks the searcher flavour: load a saved index, build one
// fresh, or scan per query.
func newSearcher(g *commdb.Graph, indexPath string, useIndex bool, rmax float64, parallel int) (*commdb.Searcher, error) {
	opts := []commdb.Option{commdb.WithParallelism(parallel)}
	if indexPath != "" {
		f, err := os.Open(indexPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		opts = append(opts, commdb.WithIndexReader(f))
	} else if useIndex {
		opts = append(opts, commdb.WithIndex(rmax))
	}
	return commdb.Open(g, opts...)
}

func run(graphPath, example, indexPath, keywords string, rmax float64, top int, all bool, max int, useIndex, verbose, jsonOut, explain bool, parallel int, lim commdb.Limits) error {
	g, err := loadGraph(graphPath, example)
	if err != nil {
		return err
	}
	kws := splitKeywords(keywords)
	if len(kws) == 0 {
		return fmt.Errorf("-keywords is required")
	}
	if top <= 0 && !all {
		top = 10
	}

	s, err := newSearcher(g, indexPath, useIndex, rmax, parallel)
	if err != nil {
		return err
	}
	if !jsonOut {
		for _, kw := range kws {
			fmt.Printf("keyword %q: %.4f%% of nodes\n", kw, s.KeywordFrequency(kw)*100)
		}
	}
	q := commdb.Query{Keywords: kws, Rmax: rmax, Limits: lim}
	ctx := context.Background()
	var tr *obs.Trace
	if explain {
		tr = obs.NewTrace("cli")
		ctx = obs.ContextWithTrace(ctx, tr)
	}

	if all {
		it, err := s.AllCtx(ctx, q)
		if err != nil {
			return err
		}
		if jsonOut {
			return emitNDJSON(os.Stdout, g, it, max, !verbose, tr)
		}
		n := 0
		for max <= 0 || n < max {
			r, ok := it.Next()
			if !ok {
				break
			}
			n++
			printCommunity(g, n, r, verbose)
		}
		fmt.Printf("%d communities\n", n)
		if err := it.Err(); err != nil {
			fmt.Printf("stopped early: %s — the %d communities above are a partial set\n", stopReason(err), n)
		}
		it.Close() // ends the enumerate span of a query cut off at -max
		if tr != nil {
			printExplain(os.Stdout, tr.Summary())
		}
		return nil
	}

	it, err := s.TopKCtx(ctx, q)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitNDJSON(os.Stdout, g, it, top, !verbose, tr)
	}
	shown := 0
	for rank := 1; rank <= top; rank++ {
		r, ok := it.Next()
		if !ok {
			if err := it.Err(); err != nil {
				fmt.Printf("stopped early after %d communities: %s\n", shown, stopReason(err))
			} else {
				fmt.Printf("only %d communities exist\n", shown)
			}
			break
		}
		shown++
		printCommunity(g, rank, r, verbose)
	}
	it.Close() // stops look-ahead workers and ends the enumerate span
	if tr != nil {
		printExplain(os.Stdout, tr.Summary())
	}
	return nil
}

// emitNDJSON streams up to max communities as NDJSON records followed
// by a trailer — the exact record schema of the server's streaming
// endpoint (internal/server), so CLI output and service responses are
// script-compatible and cross-checkable. With -v the records carry the
// full node and edge lists; without it they are compact. A non-nil tr
// puts the query's trace summary in the trailer (-explain -json).
func emitNDJSON(w io.Writer, g *commdb.Graph, st server.Stream, max int, compact bool, tr *obs.Trace) error {
	enc := json.NewEncoder(w)
	start := time.Now()
	n := 0
	for max <= 0 || n < max {
		r, ok := st.Next()
		if !ok {
			break
		}
		n++
		if err := enc.Encode(server.NewRecord(n, r, g, compact)); err != nil {
			return err
		}
	}
	trailer := server.NewTrailer(n, st.Close(), time.Since(start))
	if tr != nil {
		trailer.Trace = tr.Summary()
	}
	return enc.Encode(trailer)
}

func loadGraph(graphPath, example string) (*commdb.Graph, error) {
	switch {
	case graphPath != "" && example != "":
		return nil, fmt.Errorf("-graph and -example are mutually exclusive")
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return commdb.ReadGraph(f)
	case example == "paper":
		g, _ := commdb.PaperExampleGraph()
		return g, nil
	case example == "intro":
		g, _ := commdb.IntroExampleGraph()
		return g, nil
	default:
		return nil, fmt.Errorf("provide -graph FILE or -example paper|intro")
	}
}

func splitKeywords(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printCommunity(g *commdb.Graph, rank int, r *commdb.Community, verbose bool) {
	var cores []string
	for _, v := range r.Core {
		cores = append(cores, g.Label(v))
	}
	var centers []string
	for _, v := range r.Cnodes {
		centers = append(centers, g.Label(v))
	}
	fmt.Printf("#%d cost=%.3f core=[%s] centers=[%s] nodes=%d edges=%d\n",
		rank, r.Cost, strings.Join(cores, "; "), strings.Join(centers, "; "),
		len(r.Nodes), len(r.Edges))
	if verbose {
		for _, v := range r.Nodes {
			role := "path"
			switch {
			case contains(r.Knodes, v) && contains(r.Cnodes, v):
				role = "keyword+center"
			case contains(r.Knodes, v):
				role = "keyword"
			case contains(r.Cnodes, v):
				role = "center"
			}
			fmt.Printf("    %-14s %s\n", role, g.Label(v))
		}
	}
}

func contains(vs []commdb.NodeID, v commdb.NodeID) bool {
	for _, have := range vs {
		if have == v {
			return true
		}
	}
	return false
}
