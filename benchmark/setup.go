package main

import (
	"bytes"
	"runtime"
	"syscall"
	"time"

	"commdb"
	"commdb/internal/datagen"
	"commdb/internal/delta"
	"commdb/internal/index"
	"commdb/internal/relational"
)

// datasetSeed is fixed: --seed varies the operations, never the data,
// so every run of a workload measures the same database.
const datasetSeed = 1

// dataset is what set-up leaves behind for a workload, with what it
// cost. Only the fields a workload needs are set.
type dataset struct {
	g *commdb.Graph
	// s is the Searcher under test: the program's defaults, except that
	// a layer replay compares against WithParallelism(1).
	s *commdb.Searcher
	// ix is the index the layer replay projects through (traced runs of
	// the indexed workloads only; a Searcher does not share its own).
	ix *index.Index
	// m maintains the database of delta_rw.
	m *delta.Maintainer

	generate, toGraph, indexBuild time.Duration
	// setup is everything from an empty process to a Searcher that
	// answers: generate + ToGraph + index build or load + Open.
	setup      time.Duration
	heapLiveMB float64
}

// generateGraph builds the DBLP database and materializes its graph.
func generateGraph(authors int, d *dataset) (*relational.Database, error) {
	t := time.Now()
	db, err := commdb.GenerateDBLP(authors, datasetSeed)
	if err != nil {
		return nil, err
	}
	d.generate = time.Since(t)
	t = time.Now()
	d.g, _, err = commdb.GraphFromDatabase(db)
	d.toGraph = time.Since(t)
	return db, err
}

// setupSearch builds a query dataset: the graph and one Searcher over
// it, indexed or plain. For a layer replay the Searcher is sequential,
// because that is what the replayed calls add up to, and an indexed
// replay builds the index a second time to project through.
func setupSearch(authors int, indexed, replay bool) (*dataset, error) {
	d := &dataset{}
	start := time.Now()
	if _, err := generateGraph(authors, d); err != nil {
		return nil, err
	}
	var opts []commdb.Option
	if indexed {
		opts = append(opts, commdb.WithIndex(indexRadius))
	}
	if replay {
		opts = append(opts, commdb.WithParallelism(1))
	}
	t := time.Now()
	var err error
	if d.s, err = commdb.Open(d.g, opts...); err != nil {
		return nil, err
	}
	if indexed {
		d.indexBuild = time.Since(t)
	}
	d.setup = time.Since(start)
	if indexed && replay {
		t = time.Now()
		if d.ix, err = index.Build(d.g, index.BuildOptions{R: indexRadius}); err != nil {
			return nil, err
		}
		d.indexBuild = time.Since(t)
	}
	d.heapLiveMB = heapLiveMB()
	return d, nil
}

// setupDelta builds the maintained database of delta_rw and publishes
// its first epoch the way every later one is published.
func setupDelta(authors int) (*dataset, error) {
	d := &dataset{}
	start := time.Now()
	db, err := generateGraph(authors, d)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if d.m, err = delta.NewMaintainer(db, delta.Config{R: indexRadius}); err != nil {
		return nil, err
	}
	d.indexBuild = time.Since(t)
	if d.s, err = publish(d.m, new(bytes.Buffer), nil, 0, -1); err != nil {
		return nil, err
	}
	d.g = d.m.Graph()
	d.setup = time.Since(start)
	d.heapLiveMB = heapLiveMB()
	return d, nil
}

// publish makes the maintainer's current state searchable: serialize
// the index into buf (left holding the artifact), load it back over the
// current graph, as a deployment that ships index files to its servers
// does.
func publish(m *delta.Maintainer, buf *bytes.Buffer, rec *recorder, op, parent int) (*commdb.Searcher, error) {
	buf.Reset()
	id := rec.begin("index.write", op, parent)
	err := m.WriteIndexTo(buf)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("index.read", op, parent)
	s, err := commdb.Open(m.Graph(), commdb.WithIndexReader(bytes.NewReader(buf.Bytes())))
	rec.end(id)
	return s, err
}

// mutationStream generates the write batches of delta_rw on a twin of
// the maintained database (the generator applies what it emits).
func mutationStream(authors, n int, seed int64) ([]delta.Op, error) {
	twin, err := commdb.GenerateDBLP(authors, datasetSeed)
	if err != nil {
		return nil, err
	}
	return datagen.Mutations(twin, datagen.MutationParams{N: n, Seed: seed})
}

// heapLiveMB is the heap still reachable after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's high-water resident set (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
