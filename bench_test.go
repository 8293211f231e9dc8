package commdb

// One testing.B benchmark per table and figure of the paper's
// evaluation (Section VII). Each benchmark regenerates its artifact's
// data series through the internal/bench harness on a reduced-scale
// synthetic dataset and reports the headline numbers as custom metrics
// (milliseconds or kilobytes per algorithm, averaged over the sweep).
//
// cmd/benchrunner prints the full row-by-row series for every figure;
// EXPERIMENTS.md records a reference run. The paper-vs-repro comparison
// targets the *shape* (who wins, by what factor), not absolute times:
// the substrate here is a synthetic dataset on a different machine.

import (
	"sync"
	"testing"

	"commdb/internal/bench"
)

var (
	benchOnce sync.Once
	benchDBLP *bench.Dataset
	benchIMDB *bench.Dataset
	benchErr  error
)

// benchDatasets builds the two reduced-scale datasets once per test
// binary: DBLP with 2000 authors (~14K tuples, probe KWF boosted 2.5x)
// and IMDB with 400 users at the real density of 165 ratings each over
// a 1200-movie catalog (~68K tuples; the catalog is held larger than
// the real users:movies ratio so each user rates a few percent of it,
// as real MovieLens users do). Probe KWF is rebased to text-bearing
// tuples (0.1x) with popularity-weighted planting. See EXPERIMENTS.md
// for the calibration rationale.
func benchDatasets(b *testing.B) (*bench.Dataset, *bench.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		benchDBLP, benchErr = bench.BuildDBLPBoosted(2000, 1, 2.5)
		if benchErr != nil {
			return
		}
		benchIMDB, benchErr = bench.BuildIMDBFull(400, 1200, 165, 1, 0.1)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDBLP, benchIMDB
}

// reportSeries runs one registry experiment and reports each column's
// sweep average as a benchmark metric.
func reportSeries(b *testing.B, id string, maxResults int) {
	b.Helper()
	dblp, imdb := benchDatasets(b)
	var exp *bench.Experiment
	for i, e := range bench.Experiments() {
		if e.ID == id {
			exp = &bench.Experiments()[i]
			break
		}
	}
	if exp == nil {
		b.Fatalf("experiment %s not registered", id)
	}
	d := dblp
	if exp.Dataset == "imdb" {
		d = imdb
	}
	b.ResetTimer()
	var last *bench.Series
	for i := 0; i < b.N; i++ {
		s, err := exp.Run(d, maxResults)
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.StopTimer()
	for _, col := range last.Columns {
		vals := last.Column(col)
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		b.ReportMetric(sum/float64(len(vals)), col+"_"+metricUnit(last.YLabel))
	}
}

func metricUnit(ylabel string) string {
	if ylabel == "peak KB" {
		return "KB"
	}
	return "ms"
}

// BenchmarkTableI regenerates Table I: the ranked five communities of
// the Fig. 4 example (runner: examples/quickstart, test: TestTableI).
func BenchmarkTableI(b *testing.B) {
	g, _ := PaperExampleGraph()
	s := mustOpen(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := s.TopK(Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
		if err != nil {
			b.Fatal(err)
		}
		if got, _ := it.Collect(10); len(got) != 5 {
			b.Fatalf("got %d communities, want 5", len(got))
		}
	}
}

// Fig. 9 — Exp-1, IMDB COMM-all (runner ids fig9a..fig9f).
func BenchmarkFig09aIMDBAllDelayVsKWF(b *testing.B)  { reportSeries(b, "fig9a", 20000) }
func BenchmarkFig09bIMDBAllMemVsKWF(b *testing.B)    { reportSeries(b, "fig9b", 20000) }
func BenchmarkFig09cIMDBAllDelayVsL(b *testing.B)    { reportSeries(b, "fig9c", 20000) }
func BenchmarkFig09dIMDBAllMemVsL(b *testing.B)      { reportSeries(b, "fig9d", 20000) }
func BenchmarkFig09eIMDBAllDelayVsRmax(b *testing.B) { reportSeries(b, "fig9e", 20000) }
func BenchmarkFig09fIMDBAllMemVsRmax(b *testing.B)   { reportSeries(b, "fig9f", 20000) }

// Fig. 10 — Exp-1, IMDB COMM-k (runner ids fig10a..fig10d).
func BenchmarkFig10aIMDBTopKVsKWF(b *testing.B)  { reportSeries(b, "fig10a", 0) }
func BenchmarkFig10bIMDBTopKVsL(b *testing.B)    { reportSeries(b, "fig10b", 0) }
func BenchmarkFig10cIMDBTopKVsRmax(b *testing.B) { reportSeries(b, "fig10c", 0) }
func BenchmarkFig10dIMDBTopKVsK(b *testing.B)    { reportSeries(b, "fig10d", 0) }

// Fig. 11 — Exp-2, DBLP COMM-all plus the COMM-k companion the paper
// summarizes as "similar trends" (runner ids fig11a..fig11f, fig11k).
func BenchmarkFig11aDBLPAllDelayVsKWF(b *testing.B)  { reportSeries(b, "fig11a", 20000) }
func BenchmarkFig11bDBLPAllMemVsKWF(b *testing.B)    { reportSeries(b, "fig11b", 20000) }
func BenchmarkFig11cDBLPAllDelayVsL(b *testing.B)    { reportSeries(b, "fig11c", 20000) }
func BenchmarkFig11dDBLPAllMemVsL(b *testing.B)      { reportSeries(b, "fig11d", 20000) }
func BenchmarkFig11eDBLPAllDelayVsRmax(b *testing.B) { reportSeries(b, "fig11e", 20000) }
func BenchmarkFig11fDBLPAllMemVsRmax(b *testing.B)   { reportSeries(b, "fig11f", 20000) }
func BenchmarkFig11kDBLPTopKVsK(b *testing.B)        { reportSeries(b, "fig11k", 0) }

// Fig. 12 — Exp-3, interactive top-k (runner ids fig12dblp,
// fig12imdb).
func BenchmarkFig12DBLPInteractive(b *testing.B) { reportSeries(b, "fig12dblp", 0) }
func BenchmarkFig12IMDBInteractive(b *testing.B) { reportSeries(b, "fig12imdb", 0) }

// BenchmarkIndexBuildDBLP regenerates the index-construction statistics
// quoted in Section VII's text: build time and index size (runner id:
// printed automatically by cmd/benchrunner for each dataset).
func BenchmarkIndexBuildDBLP(b *testing.B) {
	dblp, _ := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dblp.G, WithIndex(8))
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

// BenchmarkProjection measures Algorithm 6 alone: cutting the
// query-specific subgraph out of the full DBLP graph at the default
// operating point.
func BenchmarkProjection(b *testing.B) {
	dblp, _ := benchDatasets(b)
	keywords, err := dblp.Keywords(dblp.Config.Defaults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		proj, err := dblp.Ix.Project(keywords, dblp.Config.Defaults.Rmax)
		if err != nil {
			b.Fatal(err)
		}
		nodes = proj.Sub.G.NumNodes()
	}
	b.ReportMetric(float64(nodes), "proj_nodes")
}
