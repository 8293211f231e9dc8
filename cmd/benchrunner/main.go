// Command benchrunner regenerates every figure of the paper's Section
// VII: it builds the synthetic DBLP and IMDB datasets, runs the three
// COMM-all algorithms (PDall/BUall/TDall), the three COMM-k algorithms
// (PDk/BUk/TDk) and the interactive top-k scenario across the full
// parameter sweeps of Tables II and IV, and prints one table per
// figure, plus the index construction/projection statistics quoted in
// the text.
//
// Usage:
//
//	benchrunner                         # everything, default scale
//	benchrunner -experiments fig9a,fig12dblp
//	benchrunner -authors 20000 -users 1200 -avg-ratings 60
//
// Regenerating the figures is its only mode. Performance is measured by
// benchmark/ (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"commdb/internal/bench"
)

func main() {
	var (
		experiments = flag.String("experiments", "all", "comma-separated experiment ids, or all")
		authors     = flag.Int("authors", 8000, "DBLP scale: number of authors")
		users       = flag.Int("users", 800, "IMDB scale: number of users")
		movies      = flag.Int("movies", 2500, "IMDB catalog size (0 = the real users:movies ratio)")
		avgRatings  = flag.Float64("avg-ratings", 165, "IMDB: average ratings per user (165 = the real density)")
		dblpBoost   = flag.Float64("dblp-boost", 2.5, "DBLP probe KWF multiplier compensating reduced scale")
		imdbBoost   = flag.Float64("imdb-boost", 0.1, "IMDB probe KWF multiplier (rebases KWF to text-bearing tuples)")
		seed        = flag.Int64("seed", 1, "generator seed")
		maxResults  = flag.Int("max-results", 100000, "COMM-all result cap per operating point (0 = unlimited)")
		ablations   = flag.Bool("ablations", true, "also run the ablation studies from DESIGN.md")
		charts      = flag.Bool("charts", false, "render each series as an ASCII bar chart too")
		list        = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s [%s] %s\n", e.ID, e.Dataset, e.Title)
		}
		return
	}
	if err := run(*experiments, *authors, *users, *movies, *avgRatings, *dblpBoost, *imdbBoost, *seed, *maxResults, *ablations, *charts); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(experiments string, authors, users, movies int, avgRatings, dblpBoost, imdbBoost float64, seed int64, maxResults int, ablations, charts bool) error {
	want := map[string]bool{}
	runAll := experiments == "all"
	if !runAll {
		for _, id := range strings.Split(experiments, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	selected := make([]bench.Experiment, 0)
	needDBLP, needIMDB := false, false
	for _, e := range bench.Experiments() {
		if runAll || want[e.ID] {
			selected = append(selected, e)
			if e.Dataset == "dblp" {
				needDBLP = true
			} else {
				needIMDB = true
			}
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("unknown experiment ids: %v (use -list)", keys(want))
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments selected")
	}

	datasets := map[string]*bench.Dataset{}
	if needDBLP {
		fmt.Printf("building DBLP dataset (authors=%d, boost=%gx)...\n", authors, dblpBoost)
		start := time.Now()
		d, err := bench.BuildDBLPBoosted(authors, seed, dblpBoost)
		if err != nil {
			return err
		}
		d.EnableSweepCache()
		datasets["dblp"] = d
		fmt.Printf("  done in %v: %d nodes, %d edges\n", time.Since(start).Round(time.Millisecond),
			d.G.NumNodes(), d.G.NumEdges())
		if err := printIndexReport(d); err != nil {
			return err
		}
	}
	if needIMDB {
		fmt.Printf("building IMDB dataset (users=%d, avg-ratings=%.0f, boost=%gx)...\n", users, avgRatings, imdbBoost)
		start := time.Now()
		d, err := bench.BuildIMDBFull(users, movies, avgRatings, seed, imdbBoost)
		if err != nil {
			return err
		}
		d.EnableSweepCache()
		datasets["imdb"] = d
		fmt.Printf("  done in %v: %d nodes, %d edges\n", time.Since(start).Round(time.Millisecond),
			d.G.NumNodes(), d.G.NumEdges())
		if err := printIndexReport(d); err != nil {
			return err
		}
	}

	for _, e := range selected {
		d := datasets[e.Dataset]
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		s, err := e.Run(d, maxResults)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Print(s.Format())
		if charts {
			fmt.Print(s.Chart(50))
		}
		fmt.Printf("(%v)\n", time.Since(start).Round(time.Millisecond))
	}

	if ablations {
		for _, name := range []string{"dblp", "imdb"} {
			d, ok := datasets[name]
			if !ok {
				continue
			}
			fmt.Printf("\n=== ablation-projection (%s) ===\n", name)
			s, err := d.AblationProjection(d.Config.Defaults)
			if err != nil {
				return err
			}
			fmt.Print(s.Format())
			fmt.Printf("\n=== ablation-slotcache (%s) ===\n", name)
			s, err = d.AblationSlotCache(d.Config.Defaults, maxResults)
			if err != nil {
				return err
			}
			fmt.Print(s.Format())
			fmt.Printf("\n=== motivation (%s) ===\n", name)
			s, err = d.Motivation(d.Config.Defaults, maxResults)
			if err != nil {
				return err
			}
			fmt.Print(s.Format())
			fmt.Printf("\n=== latency (%s) ===\n", name)
			s, err = d.LatencyReport(20, d.Config.Defaults.K, seed)
			if err != nil {
				return err
			}
			fmt.Print(s.Format())
		}
	}
	return nil
}

func printIndexReport(d *bench.Dataset) error {
	rep, err := d.BuildIndexReport()
	if err != nil {
		return err
	}
	fmt.Printf("  %s\n", rep)
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
