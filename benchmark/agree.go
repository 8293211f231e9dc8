package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
)

// printHostFacts heads every report with what the numbers depend on.
func printHostFacts() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// runAgree runs every workload twice, untraced and traced, and checks
// that the two sets agree: end-to-end metrics within their bounds,
// digests and exact counts identical.
func runAgree(cfg config) error {
	printHostFacts()
	disagreements := 0
	for _, w := range workloads {
		var pair [2]*report
		var traced [2]*report
		for i := range pair {
			var err error
			cfg.traced = false
			if pair[i], err = w.run(cfg); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			cfg.traced = true
			if traced[i], err = w.run(cfg); err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
		}
		fmt.Printf("workload %s\n", w.name)
		for _, d := range endToEnd {
			a, b := pair[0].metrics[d.name], pair[1].metrics[d.name]
			diff := math.Abs(b-a) / math.Min(a, b)
			verdict := "ok"
			if !(diff <= d.bound) {
				verdict = "OUTSIDE"
				disagreements++
			}
			fmt.Printf("  %-22s %12.4f %12.4f %-5s diff %6.3f bound %.2f %s\n", d.name, a, b, d.unit, diff, d.bound, verdict)
		}
		for _, rs := range [][2]*report{pair, traced} {
			if !reflect.DeepEqual(rs[0].digests, rs[1].digests) {
				fmt.Println("  digests differ")
				disagreements++
			}
			if !reflect.DeepEqual(rs[0].counts, rs[1].counts) {
				fmt.Printf("  exact counts differ: %v vs %v\n", rs[0].counts, rs[1].counts)
				disagreements++
			}
			for _, r := range rs {
				if r.failed > 0 {
					fmt.Printf("  %d of %d failed: %v\n", r.failed, r.attempted, r.problems)
					disagreements++
				}
			}
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d disagreements between two runs of the same code", disagreements)
	}
	return nil
}

// updateGolden records the digests of every workload on the default
// inputs. Run it from the repository root after a change that is meant
// to alter answers.
func updateGolden(cfg config) error {
	cfg.seed, cfg.seconds, cfg.traced, cfg.golden = defaultSeed, defaultSeconds, false, nil
	golden := map[string][]string{}
	for _, w := range workloads {
		r, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if r.failed > 0 {
			return fmt.Errorf("%s: %d of %d failed: %v", w.name, r.failed, r.attempted, r.problems)
		}
		golden[w.name] = r.digests
	}
	data, err := json.MarshalIndent(golden, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("benchmark/golden.json", append(data, '\n'), 0o644)
}
