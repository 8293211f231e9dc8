// Command indexbuild constructs the paper's inverted indexes
// (invertedN + invertedE, Section VI) for a saved database graph and
// writes them to a file, so the one-time build cost — the 355 seconds
// the paper reports for DBLP — is paid once. cmd/commsearch loads the
// result with -index-file.
//
// Usage:
//
//	indexbuild -graph dblp.graph -rmax 8 -out dblp.index
//
// Incremental mode: with -db (an NDJSON database dump from cmd/datagen
// -db-out) the graph is derived from the database, -out-graph
// publishes it next to the index, and -follow tails a mutation-log
// file, applying each quiet-period batch as a bounded delta and
// atomically republishing both artifacts — a watching commserve
// (-reload-watch) picks each generation up with zero dropped queries:
//
//	indexbuild -db base.ndjson -rmax 8 -out dblp.index -out-graph dblp.graph \
//	           -follow muts.ndjson -debounce 500ms
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"commdb"
	"commdb/internal/delta"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file written by cmd/datagen")
		dbPath    = flag.String("db", "", "NDJSON database dump (datagen -db-out); derives the graph from the database")
		rmax      = flag.Float64("rmax", 8, "largest query radius the index must support")
		out       = flag.String("out", "", "output index file (required)")
		outGraph  = flag.String("out-graph", "", "output graph file (required with -follow, optional with -db)")
		follow    = flag.String("follow", "", "mutation-log file to tail (requires -db); republishes on change")
		debounce  = flag.Duration("debounce", 500*time.Millisecond, "quiet period before a tailed batch is applied and republished")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *graphPath, *dbPath, *rmax, *out, *outGraph, *follow, *debounce); err != nil {
		fmt.Fprintln(os.Stderr, "indexbuild:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, graphPath, dbPath string, rmax float64, out, outGraph, follow string, debounce time.Duration) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	switch {
	case graphPath != "" && dbPath != "":
		return fmt.Errorf("-graph and -db are mutually exclusive")
	case dbPath != "":
		return runFromDB(ctx, dbPath, rmax, out, outGraph, follow, debounce)
	case graphPath != "":
		if follow != "" {
			return fmt.Errorf("-follow requires -db (mutations replay against the database, not the graph)")
		}
		return runFromGraph(graphPath, rmax, out)
	default:
		return fmt.Errorf("provide -graph FILE or -db FILE")
	}
}

// runFromGraph is the classic one-shot build.
func runFromGraph(graphPath string, rmax float64, out string) error {
	f, err := os.Open(graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := commdb.ReadGraph(f)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s\n", commdb.GraphStatsOf(g))

	start := time.Now()
	s, err := commdb.Open(g, commdb.WithIndex(rmax))
	if err != nil {
		return err
	}
	fmt.Printf("index built in %v: %d KB\n", time.Since(start).Round(time.Millisecond), s.IndexBytes()/1024)

	if err := writeAtomic(out, s.WriteIndex); err != nil {
		return err
	}
	fmt.Printf("written to %s\n", out)
	return nil
}

// runFromDB builds from a database dump and optionally follows a
// mutation log, republishing on every applied batch.
func runFromDB(ctx context.Context, dbPath string, rmax float64, out, outGraph, follow string, debounce time.Duration) error {
	if follow != "" && outGraph == "" {
		return fmt.Errorf("-follow requires -out-graph: each republished index belongs to its graph generation")
	}
	f, err := os.Open(dbPath)
	if err != nil {
		return err
	}
	db, err := delta.LoadDatabase(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("database: %d tuples across %d tables\n", db.NumTuples(), len(db.Tables()))

	start := time.Now()
	m, err := delta.NewMaintainer(db, delta.Config{R: rmax, Logf: func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}})
	if err != nil {
		return err
	}
	fmt.Printf("graph + index built in %v\n", time.Since(start).Round(time.Millisecond))

	publish := func() error {
		// Graph before index: a watcher triggering on the index file's
		// mtime must find the matching graph already in place.
		if outGraph != "" {
			if err := writeAtomic(outGraph, m.WriteGraphTo); err != nil {
				return err
			}
		}
		return writeAtomic(out, m.WriteIndexTo)
	}
	if err := publish(); err != nil {
		return err
	}
	fmt.Printf("written to %s\n", out)
	if follow == "" {
		return nil
	}

	fmt.Printf("following %s (debounce %v); SIGINT to stop\n", follow, debounce)
	return m.Follow(ctx, delta.NewTail(follow), debounce,
		func(bs delta.BatchStats) error {
			if err := publish(); err != nil {
				return err
			}
			fmt.Printf("republished %s (%d ops, %d/%d terms recomputed)\n",
				out, bs.Ops, bs.DirtyTerms, bs.TotalTerms)
			return nil
		})
}

// writeAtomic publishes the artifact with the temp-file + fsync +
// rename discipline: a reader (or a watching commserve) at out either
// sees the previous complete file or the new complete file, never a
// torn write — a crash mid-build leaves only a .tmp to sweep up. The
// temp file lives in out's directory so the rename stays within one
// filesystem.
func writeAtomic(out string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// CreateTemp opens 0600; publish world-readable (modulo umask) like
	// os.Create used to, so a server under another uid can load it.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		return err
	}
	// Data must be durable before the rename, or a crash could publish
	// the name pointing at unwritten blocks.
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), out); err != nil {
		return err
	}
	tmp = nil
	return nil
}
