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
	"commdb/internal/fault"
	"commdb/internal/obs"
	"commdb/internal/snapshot"
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

	// The epoch manager behind `reload`: the same fail-closed swap path
	// commserve uses, sized down to one session. A rejected artifact
	// (corrupt, truncated, wrong graph, shrunken radius) leaves the
	// current searcher untouched, an open iterator keeps answering 'more'
	// from the epoch it started on, and every finished query feeds the
	// new epoch's probation window, so the previous index is dropped
	// after the window's clean queries (or restored by a rollback).
	var reloadPath string
	snaps := snapshot.New(s, snapshot.Config{
		Load: func(inj *fault.Injector) (*commdb.Searcher, error) {
			return snapshot.IndexFileLoader(g, reloadPath)(inj)
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(out, "  "+format+"\n", a...) },
	})

	// The session-local slow-query log: every finished query is run
	// through the same capture/watchdog/aggregation layer the server
	// uses. A query is finalized when the next one starts, on 'slowlog',
	// or at quit; interactive idle time between 'more' calls is not
	// charged to its latency.
	col := obs.NewCollector(obs.CollectorConfig{})
	col.OnBreach(func(rec *obs.QueryRecord) {
		fmt.Fprintf(out, "warning: emission SLO breach on %s — max gap %.2fms vs median %.2fms\n",
			rec.QueryID, rec.MaxEmissionDelayMS, rec.MedianEmissionDelayMS)
	})
	var pending *replQuery
	flush := func() {
		if pending != nil {
			pending.flush(col, snaps, it.Err(), shown)
			pending = nil
		}
	}
	// finish ends the open query for good: Close stops its look-ahead
	// workers and ends its enumerate span before the record is flushed.
	finish := func() {
		if it != nil {
			it.Close()
		}
		flush()
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
		// Commands answer from the serving epoch, which a reload or a
		// rollback may have moved since the last one.
		epoch := snaps.Serving()
		s = epoch.Searcher()
		switch cmd := fields[0]; cmd {
		case "help":
			fmt.Fprintln(out, "  q <kw> [kw...]   start a ranked community query")
			fmt.Fprintln(out, "  more [n]         next n communities from the same query (no recompute)")
			fmt.Fprintln(out, "  trees [n]        top-n connected trees for the same keywords")
			fmt.Fprintln(out, "  rmax <v>         set the radius (now", rmax, ")")
			fmt.Fprintln(out, "  cost sum|max     set the ranking aggregate")
			fmt.Fprintln(out, "  timeout <dur>    wall-clock budget per query, e.g. 50ms (0 = unlimited)")
			fmt.Fprintln(out, "  kwf <kw>         keyword frequency of a term")
			fmt.Fprintln(out, "  mem              memory footprint of the serving artifacts (graph, index, dictionary)")
			fmt.Fprintln(out, "  stats            trace of the current query: stages, counters, emission delays")
			fmt.Fprintln(out, "  slowlog          session slow-query log: captured traces, classes, SLO breaches")
			fmt.Fprintln(out, "  reload <file>    swap in a new index artifact (fail-closed: a bad file is rejected)")
			fmt.Fprintln(out, "  quit             exit")
		case "quit", "exit":
			finish()
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
			finish()
			qn++
			tr := obs.NewTrace(fmt.Sprintf("repl-%d", qn))
			tr.SetEpoch(epoch.ID())
			ctx := obs.ContextWithTrace(context.Background(), tr)
			begin := time.Now()
			nit, err := s.TopKCtx(ctx, commdb.Query{Keywords: fields[1:], Rmax: rmax, Ranker: ranker, Limits: lim})
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				// Even a query that failed to start enters the log: errored
				// queries are always retained.
				(&replQuery{start: begin, active: time.Since(begin), tr: tr}).flush(col, snaps, err, 0)
				it, lastTr = nil, nil
				continue
			}
			it, lastTr = nit, tr
			shown = 0
			pending = &replQuery{start: begin, tr: tr}
			replShow(out, g, it, &shown, 5)
			pending.active += time.Since(begin)
		case "reload":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: reload <index-file>")
				continue
			}
			reloadPath = fields[1]
			if outcome, err := snaps.Reload(context.Background()); err != nil {
				fmt.Fprintf(out, "reload rejected (%s): %v — current index keeps serving\n", outcome, err)
				continue
			}
			// New queries run on the new epoch; an open iterator keeps its
			// old searcher and stays valid for 'more'.
			ns := snaps.Serving().Searcher()
			fmt.Fprintf(out, "reload ok: epoch %d serving (indexed=%v, radius=%v)\n",
				snaps.Current(), ns.Indexed(), ns.IndexRadius())
		case "mem":
			// Every epoch the session keeps resident: the serving one and,
			// while a reload is on probation, the one retained for rollback.
			var b strings.Builder
			for i, e := range snaps.LiveEpochs() {
				if i > 0 {
					fmt.Fprintf(&b, "epoch %d, retained for rollback until probation passes:\n", e.ID())
				}
				e.Searcher().Footprint().WriteText(&b)
			}
			fmt.Fprint(out, b.String())
		case "stats":
			if lastTr == nil {
				fmt.Fprintln(out, "no query yet — use q first")
				continue
			}
			printExplain(out, lastTr.Summary())
		case "slowlog":
			flush() // finalize the current query so it appears too
			printSlowlog(out, col)
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
			begin := time.Now()
			replShow(out, g, it, &shown, n)
			if pending != nil {
				pending.active += time.Since(begin)
			}
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

// replQuery tracks the query currently open in the REPL until it is
// finalized into the slow-query log. active accumulates only the time
// spent computing (initial run plus each 'more'), so reading results at
// the prompt does not inflate the recorded latency.
type replQuery struct {
	start  time.Time
	active time.Duration
	tr     *obs.Trace
}

// flush finalizes the query as the server does: its epoch and stop
// error (nil after a clean finish) go to the epoch's probation window,
// the trace summary and the results shown so far to the collector.
func (p *replQuery) flush(col *obs.Collector, snaps *snapshot.Manager, stop error, shown int) {
	reason := ""
	if stop != nil {
		reason = stopReason(stop)
	}
	sum := p.tr.Summary()
	snaps.ObserveQuery(sum.Epoch, stop)
	col.Observe(obs.NewQueryRecord(sum, obs.Serving{
		QueryID: p.tr.QueryID(), Endpoint: "repl", Results: shown,
		Stop: stop, StopReason: reason, Start: p.start, Elapsed: p.active,
	}))
}

// printSlowlog renders the session's capture ring and per-class
// aggregates: the REPL view of the server's GET /debug/queries.
func printSlowlog(out io.Writer, col *obs.Collector) {
	observed, retained := col.CaptureStats()
	fmt.Fprintf(out, "slow-query log: %d observed, %d retained, %d SLO breaches\n",
		observed, retained, col.Breaches())
	for _, rec := range col.SlowLog() {
		fmt.Fprintf(out, "  %-10s %9.3fms  results=%-3d class=%-12s kept=[%s]",
			rec.QueryID, rec.TotalMS, rec.Results, rec.Class, strings.Join(rec.Captured, ","))
		if rec.MaxEmissionDelayMS > 0 {
			fmt.Fprintf(out, " max_gap=%.3fms", rec.MaxEmissionDelayMS)
		}
		if rec.StopReason != "" {
			fmt.Fprintf(out, " stopped: %s", rec.StopReason)
		}
		fmt.Fprintln(out)
	}
	for _, c := range col.Classes() {
		fmt.Fprintf(out, "  class %-12s total=%-4d window=%-4d rate=%.2f/s p50=%.3fms p95=%.3fms\n",
			c.Class, c.Total, c.WindowCount, c.RatePerSec, c.P50MS, c.P95MS)
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
