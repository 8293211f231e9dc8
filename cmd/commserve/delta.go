package main

// commserve's in-process delta mode: instead of serving artifacts baked
// by cmd/indexbuild, the server loads an NDJSON database dump (-db),
// builds graph + index itself, and — with -mutation-log — tails an op
// stream, applying each quiet-period batch as a bounded incremental
// update. Every applied batch republishes the {graph, index} pair
// in-memory and swaps it in through the same epoch-versioned snapshot
// path a file reload uses, so in-flight queries (streams included)
// finish on the epoch they started on and a corrupt artifact can never
// serve: the index bytes re-enter through the fail-closed v2 reader.

import (
	"bytes"
	"context"
	"log"
	"os"
	"sync"
	"time"

	"commdb"
	"commdb/internal/delta"
	"commdb/internal/fault"
	"commdb/internal/snapshot"
)

// deltaPipeline owns the maintainer and the latest published
// {graph, serialized index} pair. The maintainer produces a fresh
// graph per batch, so a published pair is immutable; the mutex only
// guards the pointer swap.
type deltaPipeline struct {
	m *delta.Maintainer

	mu sync.Mutex
	g  *commdb.Graph
	ix []byte
}

func newDeltaPipeline(dbPath string, rmax float64) (*deltaPipeline, error) {
	f, err := os.Open(dbPath)
	if err != nil {
		return nil, err
	}
	db, err := delta.LoadDatabase(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	m, err := delta.NewMaintainer(db, delta.Config{R: rmax, Logf: log.Printf})
	if err != nil {
		return nil, err
	}
	p := &deltaPipeline{m: m}
	if err := p.publish(); err != nil {
		return nil, err
	}
	return p, nil
}

// publish captures the maintainer's current artifacts as the pair the
// next epoch load will serve.
func (p *deltaPipeline) publish() error {
	var buf bytes.Buffer
	if err := p.m.WriteIndexTo(&buf); err != nil {
		return err
	}
	g := p.m.Graph()
	p.mu.Lock()
	p.g, p.ix = g, buf.Bytes()
	p.mu.Unlock()
	return nil
}

func (p *deltaPipeline) pair() (*commdb.Graph, []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.g, p.ix
}

// loader is the snapshot loader for delta mode: boot and each reload
// serve the latest published pair. The index bytes pass through the
// injector's fault point and the fail-closed v2 reader, exactly like a
// file-backed reload, so the chaos and probation machinery applies
// unchanged.
func (p *deltaPipeline) loader(parallelism int) snapshot.Loader {
	return func(inj *fault.Injector) (*commdb.Searcher, error) {
		g, ix := p.pair()
		return commdb.Open(g,
			commdb.WithIndexReader(inj.Reader(fault.PointIndexRead, bytes.NewReader(ix))),
			commdb.WithParallelism(parallelism))
	}
}

// follow tails the mutation log until ctx is done, republishing the
// pair and swapping epochs after every applied batch. A rejected reload
// (probation, breach) leaves the previous epoch serving; the maintainer
// still advances and the next batch retries the swap.
func (p *deltaPipeline) follow(ctx context.Context, logPath string, debounce time.Duration, snaps *snapshot.Manager) error {
	return p.m.Follow(ctx, delta.NewTail(logPath), debounce,
		func(bs delta.BatchStats) error {
			if err := p.publish(); err != nil {
				return err
			}
			if _, err := snaps.Reload(ctx); err != nil {
				log.Printf("delta: epoch swap rejected (previous epoch still serving): %v", err)
				return nil
			}
			log.Printf("delta: epoch %d serving (%d ops, %d/%d terms recomputed)",
				snaps.Current(), bs.Ops, bs.DirtyTerms, bs.TotalTerms)
			return nil
		})
}
