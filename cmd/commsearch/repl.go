package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"commdb"
	"commdb/internal/obs"
)

// repl runs the interactive session: the user issues queries and then
// keeps asking for "more" — served by the same polynomial-delay top-k
// iterator with no recomputation, the paper's Exp-3 scenario as a UI.
// Queries run under lim; a query stopped by a limit reports the reason
// instead of silently ending its output.
func repl(g *commdb.Graph, s *commdb.Searcher, rmax float64, lim commdb.Limits, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, "commsearch interactive mode — 'help' lists commands")
	var ranker commdb.Ranker // nil = the paper's summed distances
	var it *commdb.Results
	var shown int
	var lastTr *obs.Trace // trace of the current query, for 'stats'
	var qn int            // query counter, numbers the trace IDs
	// closeQuery stops the open query's look-ahead workers and ends its
	// enumerate span.
	closeQuery := func() {
		if it != nil {
			it.Close()
		}
	}

	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !scanner.Scan() {
			return scanner.Err()
		}
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		switch cmd := fields[0]; cmd {
		case "help":
			fmt.Fprintln(out, "  q <kw> [kw...]   start a ranked community query")
			fmt.Fprintln(out, "  more [n]         next n communities from the same query (no recompute)")
			fmt.Fprintln(out, "  trees [n]        top-n connected trees for the same keywords")
			fmt.Fprintln(out, "  rmax <v>         set the radius (now", rmax, ")")
			fmt.Fprintln(out, "  cost sum|max     set the ranking aggregate")
			fmt.Fprintln(out, "  timeout <dur>    wall-clock budget per query, e.g. 50ms (0 = unlimited)")
			fmt.Fprintln(out, "  kwf <kw>         keyword frequency of a term")
			fmt.Fprintln(out, "  stats            trace of the current query: stages, counters, emission delays")
			fmt.Fprintln(out, "  quit             exit")
		case "quit", "exit":
			closeQuery()
			return nil
		case "rmax":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: rmax <v>")
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || v < 0 {
				fmt.Fprintln(out, "bad radius")
				continue
			}
			rmax = v
			fmt.Fprintln(out, "rmax =", rmax)
		case "cost":
			if len(fields) != 2 || (fields[1] != "sum" && fields[1] != "max") {
				fmt.Fprintln(out, "usage: cost sum|max")
				continue
			}
			if fields[1] == "max" {
				ranker = commdb.MaxRanker()
			} else {
				ranker = nil
			}
			fmt.Fprintln(out, "cost =", fields[1])
		case "timeout":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: timeout <dur>")
				continue
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d < 0 {
				fmt.Fprintln(out, "bad duration")
				continue
			}
			lim.Timeout = d
			fmt.Fprintln(out, "timeout =", d)
		case "kwf":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: kwf <kw>")
				continue
			}
			fmt.Fprintf(out, "%q occurs on %.4f%% of nodes\n", fields[1], s.KeywordFrequency(fields[1])*100)
		case "q":
			if len(fields) < 2 {
				fmt.Fprintln(out, "usage: q <kw> [kw...]")
				continue
			}
			closeQuery()
			qn++
			tr := obs.NewTrace(fmt.Sprintf("repl-%d", qn))
			ctx := obs.ContextWithTrace(context.Background(), tr)
			nit, err := s.TopKCtx(ctx, commdb.Query{Keywords: fields[1:], Rmax: rmax, Ranker: ranker, Limits: lim})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				it, lastTr = nil, nil
				continue
			}
			it, lastTr = nit, tr
			shown = 0
			replShow(out, g, it, &shown, 5)
		case "stats":
			if lastTr == nil {
				fmt.Fprintln(out, "no query yet — use q first")
				continue
			}
			printExplain(out, lastTr.Summary())
		case "more":
			if it == nil {
				fmt.Fprintln(out, "no active query — use q first")
				continue
			}
			n := 5
			if len(fields) == 2 {
				if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
					n = v
				}
			}
			replShow(out, g, it, &shown, n)
		case "trees":
			if len(fields) < 2 {
				fmt.Fprintln(out, "usage: trees <kw> [kw...] (or rerun after q)")
				continue
			}
			tit, err := s.Trees(commdb.Query{Keywords: fields[1:], Rmax: rmax})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			ts := tit.Collect(5)
			for i, tr := range ts {
				fmt.Fprintf(out, "tree %d cost=%.3f root=%s nodes=%d\n",
					i+1, tr.Cost, g.Label(tr.Root), len(tr.Nodes))
			}
			if len(ts) == 0 {
				fmt.Fprintln(out, "no trees")
			}
		default:
			fmt.Fprintf(out, "unknown command %q — try help\n", cmd)
		}
	}
}

func replShow(out io.Writer, g *commdb.Graph, it *commdb.Results, shown *int, n int) {
	for i := 0; i < n; i++ {
		r, ok := it.Next()
		if !ok {
			// Distinguish "no more communities exist" from "the query
			// was stopped": exhausted vs. deadline vs. budget.
			if err := it.Err(); err != nil {
				fmt.Fprintf(out, "(stopped early: %s — %d shown so far are a valid ranking prefix)\n",
					stopReason(err), *shown)
			} else {
				fmt.Fprintln(out, "(query exhausted)")
			}
			return
		}
		*shown++
		var cores []string
		for _, v := range r.Core {
			cores = append(cores, g.Label(v))
		}
		fmt.Fprintf(out, "#%d cost=%.3f core=[%s] centers=%d nodes=%d\n",
			*shown, r.Cost, strings.Join(cores, "; "), len(r.Cnodes), len(r.Nodes))
	}
	fmt.Fprintln(out, "('more' continues without recomputation)")
}
