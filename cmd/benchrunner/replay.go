package main

// The -replay mode is the deterministic half of the workload flight
// recorder: it re-executes a captured journal (commserve -workload-log)
// query by query in arrival order against an in-process server — or a
// live one via -replay-server — and reports latency plus an outcome
// digest: a SHA-256 over every query's canonical result sequence
// (fingerprint, result count, per-community costs, completion, stop
// reason). The digest is the determinism contract: two replays of the
// same journal against the same dataset must produce byte-identical
// outcomes, so a digest change means engine behavior changed, not just
// timing.
//
// Replay strips recorded wall-clock timeouts (a timeout's trip point
// depends on machine speed) but keeps every work budget — relaxations,
// neighbor runs, can-tuples, heap bytes, results are deterministic
// machine-independent units. The in-process target runs with
// parallelism 1 for the same reason.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"commdb"
	"commdb/internal/bench"
	"commdb/internal/server"
	"commdb/internal/workload"
)

// replayBenchReport is the JSON report -replay prints on stdout.
type replayBenchReport struct {
	Journal     string `json:"journal"`
	Dataset     string `json:"dataset,omitempty"`
	Authors     int    `json:"authors,omitempty"`
	Queries     int    `json:"queries"`
	TopKQueries int    `json:"topk_queries"`
	AllQueries  int    `json:"all_queries"`
	// CacheHits counts replayed top-k responses the target served from
	// its result cache — repeated fingerprints in the journal become
	// hits on replay exactly as they did in production.
	CacheHits int `json:"cache_hits"`
	Errors    int `json:"errors"`
	// OutcomeDigest is the SHA-256 over every query's canonical outcome
	// line, in arrival order. Identical journal + identical dataset ⇒
	// identical digest, on any machine.
	OutcomeDigest string        `json:"outcome_digest"`
	ResultsTotal  int           `json:"results_total"`
	DurationMS    float64       `json:"duration_ms"`
	Throughput    float64       `json:"throughput_rps"`
	TopK          endpointStats `json:"topk"`
	Stream        endpointStats `json:"stream"`
}

// endpointStats summarizes one endpoint's replay latencies.
type endpointStats struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func summarize(lat []time.Duration) endpointStats {
	if len(lat) == 0 {
		return endpointStats{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	q := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return ms(lat[i])
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return endpointStats{
		Count:  len(lat),
		MeanMS: ms(sum) / float64(len(lat)),
		P50MS:  q(0.50),
		P95MS:  q(0.95),
		P99MS:  q(0.99),
		MaxMS:  ms(lat[len(lat)-1]),
	}
}

// replayOutcome is one query's canonical result: the digest input and
// the unit of the determinism test.
type replayOutcome struct {
	line    string
	latency time.Duration
	topk    bool
	cached  bool
	errored bool
	results int
}

// sanitizeLimits drops the recorded wall-clock timeout and keeps the
// deterministic work budgets.
func sanitizeLimits(l *workload.Limits) *workload.Limits {
	if l == nil {
		return nil
	}
	out := *l
	out.TimeoutMS = 0
	if out.IsZero() {
		return nil
	}
	return &out
}

// replayRequest renders one journal entry as the search request to
// re-issue.
func replayRequest(e workload.Entry) (path string, body []byte, err error) {
	req := map[string]any{
		"keywords": e.Keywords,
		"rmax":     e.Rmax,
		"compact":  true,
	}
	if e.Cost != "" {
		req["cost"] = e.Cost
	}
	if l := sanitizeLimits(e.Limits); l != nil {
		req["limits"] = l
	}
	switch e.Algo {
	case workload.AlgoTopK:
		if e.K > 0 {
			req["k"] = e.K
		}
		path = "/v1/search/topk"
	case workload.AlgoAll:
		path = "/v1/search/all"
	default:
		return "", nil, fmt.Errorf("entry seq %d: unknown algo %q", e.Seq, e.Algo)
	}
	body, err = json.Marshal(req)
	return path, body, err
}

// outcomeLine renders one query's canonical outcome: everything a
// correct replay must reproduce, nothing timing-dependent.
func outcomeLine(e workload.Entry, costs []float64, complete bool, reason string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|k=%d|n=%d|complete=%t|stop=%s",
		e.Fingerprint, e.Algo, e.K, len(costs), complete, reason)
	for _, c := range costs {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	return sb.String()
}

// replayOne re-issues one journal entry and reduces the response to
// its canonical outcome.
func replayOne(client *http.Client, base string, e workload.Entry) (replayOutcome, error) {
	path, body, err := replayRequest(e)
	if err != nil {
		return replayOutcome{}, err
	}
	t0 := time.Now()
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return replayOutcome{}, err
	}
	defer resp.Body.Close()
	out := replayOutcome{topk: e.Algo == workload.AlgoTopK}
	if resp.StatusCode != http.StatusOK {
		// A rejected replay (400 on a malformed recorded query, 429 on
		// saturation) is part of the outcome stream: deterministic for
		// the former, an error either way.
		out.latency = time.Since(t0)
		out.errored = true
		out.line = fmt.Sprintf("%s|%s|status=%d", e.Fingerprint, e.Algo, resp.StatusCode)
		return out, nil
	}
	var costs []float64
	var complete bool
	var reason string
	if out.topk {
		var r server.TopKResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			return replayOutcome{}, fmt.Errorf("seq %d: decoding topk response: %w", e.Seq, err)
		}
		for _, rec := range r.Results {
			costs = append(costs, rec.Cost)
		}
		complete, reason, out.cached = r.Complete, r.Reason, r.Cached
	} else {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var line struct {
				Type     string  `json:"type"`
				Cost     float64 `json:"cost"`
				Complete bool    `json:"complete"`
				Reason   string  `json:"reason"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return replayOutcome{}, fmt.Errorf("seq %d: bad stream line: %w", e.Seq, err)
			}
			if line.Type == server.RecordTrailer {
				complete, reason = line.Complete, line.Reason
			} else {
				costs = append(costs, line.Cost)
			}
		}
		if err := sc.Err(); err != nil {
			return replayOutcome{}, fmt.Errorf("seq %d: reading stream: %w", e.Seq, err)
		}
	}
	out.latency = time.Since(t0)
	out.results = len(costs)
	out.line = outcomeLine(e, costs, complete, reason)
	return out, nil
}

// replayAgainst replays every entry in order against base and returns
// the outcome sequence. pace sleeps the recorded inter-arrival gaps
// (capped at one second) instead of replaying back-to-back.
func replayAgainst(client *http.Client, base string, entries []workload.Entry, pace bool) ([]replayOutcome, error) {
	outs := make([]replayOutcome, 0, len(entries))
	var prevMS int64
	for i, e := range entries {
		if pace && i > 0 && e.UnixMS > prevMS {
			gap := time.Duration(e.UnixMS-prevMS) * time.Millisecond
			if gap > time.Second {
				gap = time.Second
			}
			time.Sleep(gap)
		}
		prevMS = e.UnixMS
		out, err := replayOne(client, base, e)
		if err != nil {
			return outs, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// digestOutcomes folds the outcome lines, in order, into the replay
// digest.
func digestOutcomes(outs []replayOutcome) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write([]byte(o.line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runReplay is the -replay entry point. With serverURL empty it boots
// an in-process indexed server over the synthetic DBLP dataset
// (parallelism 1, so outcomes are machine-independent); otherwise it
// replays against the live server at that base URL. The JSON report goes
// to out; progress and the human-readable summary go to stderr.
func runReplay(journalPath string, authors int, seed int64, boost float64, serverURL string, pace bool, out io.Writer) error {
	entries, err := workload.ReadJournalFile(journalPath)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s: journal is empty", journalPath)
	}

	rep := replayBenchReport{Journal: journalPath, Queries: len(entries)}
	base := serverURL
	client := http.DefaultClient
	if serverURL == "" {
		fmt.Fprintf(os.Stderr, "building DBLP dataset (authors=%d, boost=%gx)...\n", authors, boost)
		d, err := bench.BuildDBLPBoosted(authors, seed, boost)
		if err != nil {
			return err
		}
		p := d.Config.Defaults
		fmt.Fprintf(os.Stderr, "building index (rmax=%g)...\n", p.Rmax)
		s, err := commdb.Open(d.G, commdb.WithIndex(p.Rmax), commdb.WithParallelism(1))
		if err != nil {
			return err
		}
		ts := httptest.NewServer(server.New(s, server.Config{}).Handler())
		defer ts.Close()
		base, client = ts.URL, ts.Client()
		rep.Dataset, rep.Authors = d.Name, authors
	}

	fmt.Fprintf(os.Stderr, "replaying %d queries from %s (pace=%v)...\n", len(entries), journalPath, pace)
	start := time.Now()
	outs, err := replayAgainst(client, base, entries, pace)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	var topkLat, allLat []time.Duration
	for _, o := range outs {
		rep.ResultsTotal += o.results
		switch {
		case o.errored:
			rep.Errors++
		case o.topk:
			rep.TopKQueries++
			topkLat = append(topkLat, o.latency)
			if o.cached {
				rep.CacheHits++
			}
		default:
			rep.AllQueries++
			allLat = append(allLat, o.latency)
		}
	}
	rep.OutcomeDigest = digestOutcomes(outs)
	rep.DurationMS = float64(elapsed) / float64(time.Millisecond)
	rep.Throughput = float64(len(outs)) / elapsed.Seconds()
	rep.TopK = summarize(topkLat)
	rep.Stream = summarize(allLat)

	fmt.Fprintf(os.Stderr, "done in %v: %.1f req/s, %d errors, digest %s\n",
		elapsed.Round(time.Millisecond), rep.Throughput, rep.Errors, rep.OutcomeDigest[:16])
	fmt.Fprintf(os.Stderr, "  topk:   n=%d (cached %d) mean=%.2fms p95=%.2fms\n",
		rep.TopK.Count, rep.CacheHits, rep.TopK.MeanMS, rep.TopK.P95MS)
	fmt.Fprintf(os.Stderr, "  stream: n=%d mean=%.2fms p95=%.2fms\n",
		rep.Stream.Count, rep.Stream.MeanMS, rep.Stream.P95MS)

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
