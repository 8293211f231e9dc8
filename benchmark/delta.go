package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"
	"time"

	"commdb"
	"commdb/internal/delta"
	"commdb/internal/index"
)

const (
	// deltaBatches write batches (at the default --seconds) of
	// deltaBatchOps row inserts and deletes each become visible one
	// after another.
	deltaBatches  = 32
	deltaBatchOps = 10
	// deltaReadOps is the length of the query list the reader cycles
	// through for as long as the writer runs.
	deltaReadOps = 60
)

// epoch is one published state of the maintained database.
type epoch struct {
	s *commdb.Searcher
	n int
}

// readRecord is one reader query: which op, against which epoch, and
// what came back.
type readRecord struct {
	op, epoch int
	rs        []result
	err       error
}

// runDelta is the delta_rw workload: one writer makes batches visible
// (Apply, serialize the index, load it over the new graph, swap) while
// one reader queries whatever is visible, closed-loop.
func runDelta(cfg config) (*report, error) {
	d, err := setupDelta(cfg.deltaAuthors)
	if err != nil {
		return nil, err
	}
	batches := cfg.scale(deltaBatches)
	stream, err := mutationStream(cfg.deltaAuthors, batches*deltaBatchOps, cfg.seed)
	if err != nil {
		return nil, err
	}
	// batch b is stream[bounds[b]:bounds[b+1]]; the generator may
	// overshoot by one cascade, which the last batch absorbs.
	bounds := make([]int, batches+1)
	for b := range bounds {
		bounds[b] = b * deltaBatchOps
	}
	bounds[batches] = len(stream)
	reads := libraryOps("topk", deltaReadOps, 10, weightUniform, cfg.seed)
	r := newReport("delta_rw")
	warmUp(d.s, reads)
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}

	var cur atomic.Pointer[epoch]
	cur.Store(&epoch{s: d.s})
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var m measure
	var log []readRecord
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := cur.Load()
			rs, err := runOp(context.Background(), e.s, reads[i%len(reads)], &m)
			log = append(log, readRecord{op: i % len(reads), epoch: e.n, rs: rs, err: err})
		}
	}()

	var visible, apply samples
	stages := map[string]float64{}
	var dirty, total, rebuilds, rejected, applied int
	var buf bytes.Buffer
	var writeErr error
	start := time.Now()
	for b := 0; b < batches && writeErr == nil; b++ {
		batch := stream[bounds[b]:bounds[b+1]]
		t0 := time.Now()
		root := rec.begin("delta.write_visible", b, -1)
		id := rec.begin("delta.apply", b, root)
		bs, err := d.m.Apply(batch)
		rec.end(id)
		if err != nil {
			writeErr = err
			break
		}
		apply.add(time.Since(t0))
		s, err := publish(d.m, &buf, rec, b, root)
		if err != nil {
			writeErr = err
			break
		}
		cur.Store(&epoch{s: s, n: b + 1})
		rec.end(root)
		visible.add(time.Since(t0))

		applied += len(batch)
		dirty, total = dirty+bs.DirtyTerms, total+bs.TotalTerms
		rejected += bs.Rejected
		if bs.FullRebuild {
			rebuilds++
		}
		for k, v := range bs.Stages {
			stages[k] += v
		}
	}
	wall := time.Since(start)
	close(stop)
	<-readerDone
	if writeErr != nil {
		return nil, writeErr
	}

	r.attempted = batches + len(log)
	for i, rd := range log {
		if rd.err != nil {
			r.fail("read %d: %v", i, rd.err)
		}
	}
	// A rejected op is a write that did not happen.
	for i := 0; i < rejected; i++ {
		r.fail("the maintainer rejected an op of the generated stream")
	}
	m.endToEnd(r, d, wall)
	// How many reads fit beside the writes depends on timing.
	delete(r.counts, "query_samples")
	delete(r.counts, "communities")
	r.counts["write_batches"] = int64(batches)
	r.counts["write_ops"] = int64(applied)

	r.metrics["delta.write_visible_ms_p50"] = visible.p(0.50)
	r.metrics["delta.write_visible_ms_tail"] = visible.tail()
	r.metrics["delta.write_ops_per_s"] = ratio(float64(applied), wall.Seconds())
	r.metrics["delta.apply_ms_p50"] = apply.p(0.50)
	for _, st := range []string{"to_graph", "repair", "merge", "remap", "dirty_terms"} {
		r.metrics["delta."+st+"_ms"] = ratio(stages[st], float64(batches))
	}
	r.metrics["delta.dirty_term_share"] = ratio(float64(dirty), float64(total))
	r.metrics["delta.full_rebuilds"] = float64(rebuilds)
	r.metrics["delta.rejected_ops"] = float64(rejected)
	r.metrics["index.write_bytes"] = float64(buf.Len())
	r.metrics["delta.read_p99_ms"] = m.query.p(0.99)

	if err := checkDelta(cfg, r, d, stream, bounds, reads, log, cur.Load().s, buf.Bytes()); err != nil {
		return nil, err
	}
	if cfg.traced {
		setupLedger(r, d)
		r.metrics["index.write_ms_p50"] = spanDurations(rec.spans, "index.write").p(0.50)
		r.metrics["index.read_ms_p50"] = spanDurations(rec.spans, "index.read").p(0.50)
		if err := checkLedger(selfTimes(rec.spans), rootTime(rec.spans)); err != nil {
			r.fail("%v", err)
		}
		if err := writeTrace(cfg.outDir, r.workload, rec.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkDelta checks delta_rw's answers three ways. The maintained index
// must equal a from-scratch build of the final graph. One read in
// checkEvery must match an un-indexed sequential Searcher over a
// from-scratch graph of the database as it stood at the read's epoch,
// rebuilt by replaying the stream on a fresh copy. And on the default
// inputs the final state — every reader query on the last epoch, plus
// the index artifact's bytes — must match golden.json.
func checkDelta(cfg config, r *report, d *dataset, stream []delta.Op, bounds []int,
	reads []op, log []readRecord, final *commdb.Searcher, artifact []byte) error {
	fresh, err := index.Build(d.m.Graph(), index.BuildOptions{R: indexRadius})
	if err != nil {
		return err
	}
	if !d.m.Index().Equal(fresh) {
		r.fail("maintained index differs from a from-scratch build of the final graph")
	}

	sampled := map[int][]readRecord{}
	for i := 0; i < len(log); i += checkEvery {
		sampled[log[i].epoch] = append(sampled[log[i].epoch], log[i])
	}
	db, err := commdb.GenerateDBLP(cfg.deltaAuthors, datasetSeed)
	if err != nil {
		return err
	}
	if err := db.EnableMutations(); err != nil {
		return err
	}
	var discard measure
	for e := 0; e < len(bounds); e++ {
		if len(sampled[e]) > 0 {
			g, _, err := commdb.GraphFromDatabase(db)
			if err != nil {
				return err
			}
			ref, err := commdb.Open(g, commdb.WithParallelism(1))
			if err != nil {
				return err
			}
			for _, rd := range sampled[e] {
				o := reads[rd.op]
				want, err := runOp(context.Background(), ref, o, &discard)
				if err != nil {
					r.fail("epoch %d read %d: reference execution: %v", e, rd.op, err)
				} else if !sameResults(rd.rs, want, len(want) < o.Limit) {
					r.fail("epoch %d read %d (%v rmax %g): differs from a from-scratch un-indexed Searcher", e, rd.op, o.Keywords, o.Rmax)
				}
			}
		}
		if e+1 < len(bounds) {
			for _, op := range stream[bounds[e]:bounds[e+1]] {
				_ = delta.Apply(db, op) // an op the maintainer rejected is rejected here too
			}
		}
	}

	for _, o := range reads {
		rs, err := runOp(context.Background(), final, o, &discard)
		if err != nil {
			return err
		}
		r.digests = append(r.digests, digest(rs))
	}
	sum := sha256.Sum256(artifact)
	r.digests = append(r.digests, hex.EncodeToString(sum[:8]))
	if want, ok := cfg.golden[r.workload]; ok {
		compareGolden(r, want)
	}
	return nil
}
