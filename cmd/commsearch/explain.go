package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"commdb/internal/obs"
)

// printExplain renders a finished query trace for the terminal: the
// per-stage spans, the engine counters, and the per-community
// inter-emission delays — the paper's polynomial-delay claim made
// visible per query.
func printExplain(w io.Writer, sum *obs.Summary) {
	if sum == nil {
		return
	}
	fmt.Fprintf(w, "--- explain: total %.3fms", sum.TotalMS)
	if sum.QueryID != "" {
		fmt.Fprintf(w, " (query %s)", sum.QueryID)
	}
	fmt.Fprintln(w)
	if sum.Fingerprint != "" {
		fmt.Fprintf(w, "  algorithm=%s indexed=%t keywords=%s rmax=%g parallelism=%d fingerprint=%s\n",
			sum.Algorithm, sum.Indexed, strings.Join(sum.Keywords, ","), sum.Rmax, sum.Parallelism, sum.Fingerprint)
	}
	for _, sp := range sum.Spans {
		fmt.Fprintf(w, "  stage %-12s start=%9.3fms dur=%9.3fms\n", sp.Name, sp.StartMS, sp.DurMS)
	}
	if len(sum.Counters) > 0 {
		names := make([]string, 0, len(sum.Counters))
		for name := range sum.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  counters:")
		for _, name := range names {
			fmt.Fprintf(w, "    %-24s %d\n", name, sum.Counters[name])
		}
	}
	if e := sum.Emissions; e != nil {
		fmt.Fprintf(w, "  emissions: %d communities, first after %.3fms, delay mean=%.3fms max=%.3fms\n",
			e.Count, e.FirstMS, e.MeanDelayMS, e.MaxDelayMS)
		for i, d := range e.DelaysMS {
			fmt.Fprintf(w, "    community %-4d +%.3fms\n", i+1, d)
		}
		if int64(len(e.DelaysMS)) < e.Count {
			fmt.Fprintf(w, "    (… %d more; aggregates above cover all)\n", e.Count-int64(len(e.DelaysMS)))
		}
	}
}
