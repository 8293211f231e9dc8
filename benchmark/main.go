// Command benchmark is the repository's performance benchmark: five
// workloads over a synthetic DBLP at the paper's scale, end-to-end
// metrics from an untraced run and a per-layer ledger from a traced
// one. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./benchmark -workload topk_indexed [-seed N] [-seconds S] [-trace 1]
//	go run ./benchmark -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

const (
	// defaultAuthors gives 1 030 422 nodes and 2 530 732 edges, the
	// paper's DBLP scale; defaultDeltaAuthors gives 34 129 nodes.
	defaultAuthors      = 150000
	defaultDeltaAuthors = 5000
	// defaultSeconds is BENCHMARK.json's run_seconds. The op counts in
	// the workload specs are sized to measure for about that long on the
	// two-core host the benchmark was written on; --seconds scales them.
	defaultSeconds = 10
	defaultSeed    = 1

	// warmPercent of the op list, at least, runs unmeasured first.
	warmPercent = 15
	// checkEvery-th ops are re-executed on a reference Searcher, which
	// materializes at most refPrefix communities.
	checkEvery = 16
	refPrefix  = 40
)

// config is one run's inputs.
type config struct {
	authors      int
	deltaAuthors int
	seed         int64
	seconds      float64
	traced       bool
	// outDir receives the span dump of a traced run.
	outDir string
	// golden holds the recorded digests, when the inputs are the ones
	// they were recorded on; nil skips the comparison.
	golden map[string][]string
}

// scale converts an op count sized for defaultSeconds to --seconds.
func (c config) scale(base int) int {
	n := int(math.Round(float64(base) * c.seconds / defaultSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// workload binds a name to its run, which looks at cfg.traced.
type workload struct {
	name string
	run  func(config) (*report, error)
}

var workloads = []workload{
	{"topk_indexed", func(c config) (*report, error) { return runLibrary(c, topkIndexed) }},
	{"all_indexed", func(c config) (*report, error) { return runLibrary(c, allIndexed) }},
	{"topk_plain", func(c config) (*report, error) { return runLibrary(c, topkPlain) }},
	{"serve_mix", runServe},
	{"delta_rw", runDelta},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: topk_indexed, all_indexed, topk_plain, serve_mix or delta_rw")
		seed    = flag.Int64("seed", defaultSeed, "seed of the operation generators (the dataset seed is fixed)")
		seconds = flag.Float64("seconds", defaultSeconds, "how long to measure; scales the fixed op counts")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		agree   = flag.Bool("agree", false, "run every workload twice and compare the two sets of metrics")
		update  = flag.Bool("update-golden", false, "run every workload on the default inputs and rewrite benchmark/golden.json")
	)
	flag.Parse()
	cfg := config{
		authors:      defaultAuthors,
		deltaAuthors: defaultDeltaAuthors,
		seed:         *seed,
		seconds:      *seconds,
		traced:       *trace == 1,
		outDir:       "benchmark/out",
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	if cfg.seed == defaultSeed && cfg.seconds == defaultSeconds && !*update {
		golden, err := loadGolden()
		if err != nil {
			fatal(err)
		}
		cfg.golden = golden
	}
	if *update {
		fatal(updateGolden(cfg))
		return
	}
	if *agree {
		fatal(runAgree(cfg))
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	r, err := w.run(cfg)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line := r.line(defs)
	printReport(r, defs, line)
	if !line.Correct {
		os.Exit(1)
	}
}

// printReport writes every metric as "name value unit", then what
// failed, then the result object on the last line.
func printReport(r *report, defs []metricDef, line resultLine) {
	printHostFacts()
	fmt.Printf("workload %s\n", r.workload)
	for _, k := range sortedKeys(r.counts) {
		fmt.Printf("%s %d count\n", k, r.counts[k])
	}
	for _, d := range defs {
		fmt.Printf("%s %v %s\n", d.name, line.Metrics[d.name].Value, d.unit)
	}
	// Measured as well, but not part of this run's result line: ledger
	// lines an untraced run gets for free, and first_result_tail_ms,
	// which repeats too poorly on 40 samples to carry a bound.
	for _, k := range sortedKeys(r.metrics) {
		if _, listed := line.Metrics[k]; !listed {
			fmt.Printf("%s %v (unlisted)\n", k, r.metrics[k])
		}
	}
	fmt.Printf("failed_share %v ratio\n", ratio(float64(line.Failed), float64(line.Attempted)))
	for _, p := range r.problems {
		fmt.Printf("FAILED %s\n", p)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fatal exits non-zero on an error and does nothing on nil.
func fatal(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
