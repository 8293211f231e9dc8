package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"commdb"
	"commdb/internal/server"
)

const (
	// serveClients callers each wait for a reply before their next
	// request (a closed loop); with the server in the same process that
	// is as much load as two cores carry.
	serveClients = 2
	// serveOpsBase is the request count at the default --seconds.
	serveOpsBase = 240
)

// exchange is one request as its client saw it.
type exchange struct {
	status int
	body   []byte
	total  time.Duration
	// ttfb is when the first response byte arrived (traced runs only).
	ttfb time.Duration
	err  error
}

// serveClient is one closed-loop caller with its own keep-alive
// connection.
type serveClient struct {
	http *http.Client
	base string
	m    measure
	rec  *recorder
}

// do sends op i and reads the whole response, timing the first
// community to reach the client and, on a stream, the gaps between
// records.
func (c *serveClient) do(i int, o op) exchange {
	req := server.SearchRequest{Keywords: o.Keywords, Rmax: o.Rmax}
	path := "/v1/search/topk"
	if o.Kind == "all" {
		path = "/v1/search/all"
		req.Limits.MaxResults = int64(o.Limit)
	} else {
		req.K = o.Limit
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return exchange{err: err}
	}
	hr, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return exchange{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")

	var ex exchange
	root := c.rec.begin("server.request", i, -1)
	t0 := time.Now()
	if c.rec != nil {
		hr = hr.WithContext(httptrace.WithClientTrace(hr.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { ex.ttfb = time.Since(t0) },
		}))
	}
	wait := c.rec.begin("server.first_byte", i, root)
	resp, err := c.http.Do(hr)
	c.rec.end(wait)
	if err != nil {
		c.rec.end(root)
		return exchange{err: err}
	}
	read := c.rec.begin("server.body", i, root)
	ex.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	if o.Kind == "all" && resp.StatusCode == http.StatusOK {
		// Every line but the last is a community; the last is the trailer.
		last := t0
		for n := 0; ; n++ {
			line, err := br.ReadBytes('\n')
			buf.Write(line)
			if err != nil {
				if err != io.EOF {
					ex.err = err
				}
				break
			}
			now := time.Now()
			if n == 0 {
				c.m.first.add(now.Sub(t0))
			} else if n < o.Limit {
				c.m.gap.add(now.Sub(last))
			}
			last = now
		}
	} else {
		if _, err := br.Peek(1); err == nil {
			c.m.first.add(time.Since(t0))
		}
		if _, err := buf.ReadFrom(br); err != nil {
			ex.err = err
		}
	}
	resp.Body.Close()
	ex.total = time.Since(t0)
	c.rec.end(read)
	c.rec.end(root)
	c.m.query.add(ex.total)
	ex.body = buf.Bytes()
	return ex
}

// wireRecord is what answer checking reads of a community or trailer
// line.
type wireRecord struct {
	Type     string          `json:"type"`
	Core     []commdb.NodeID `json:"core"`
	Cost     float64         `json:"cost"`
	Complete bool            `json:"complete"`
}

// decode turns a response body back into results; cached reports a
// top-k answer served from the result cache.
func (ex exchange) decode(o op) (rs []result, cached bool, err error) {
	if ex.err != nil {
		return nil, false, ex.err
	}
	if ex.status != http.StatusOK {
		return nil, false, fmt.Errorf("HTTP %d: %s", ex.status, bytes.TrimSpace(ex.body))
	}
	if o.Kind == "topk" {
		var resp server.TopKResponse
		if err := json.Unmarshal(ex.body, &resp); err != nil {
			return nil, false, err
		}
		if !resp.Complete {
			return nil, false, fmt.Errorf("top-k stopped early: %s", resp.Reason)
		}
		for _, rec := range resp.Results {
			rs = append(rs, result{Core: rec.Core, Cost: rec.Cost})
		}
		return rs, resp.Cached, nil
	}
	trailer := false
	sc := bufio.NewScanner(bytes.NewReader(ex.body))
	sc.Buffer(nil, len(ex.body)+1)
	for sc.Scan() {
		var rec wireRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, false, err
		}
		if rec.Type == server.RecordTrailer {
			trailer = true
			// Stopping at max_results is the requested outcome, any other
			// early stop is not.
			if !rec.Complete && len(rs) < o.Limit {
				return nil, false, fmt.Errorf("stream stopped early after %d records", len(rs))
			}
			continue
		}
		rs = append(rs, result{Core: rec.Core, Cost: rec.Cost})
	}
	if !trailer {
		return nil, false, fmt.Errorf("stream ended without a trailer")
	}
	return rs, false, nil
}

// runServe is the serve_mix workload: two closed-loop clients over
// loopback TCP against an in-process server with default Config. With
// cfg.traced it also times first bytes, records spans and measures what
// HTTP adds to a miss.
func runServe(cfg config) (*report, error) {
	d, err := setupSearch(cfg.authors, true, false)
	if err != nil {
		return nil, err
	}
	ops := serveOps(cfg.scale(serveOpsBase), cfg.seed)
	r := newReport("serve_mix")
	warmUp(d.s, ops)

	// The server is created after the warm-up, so its cache starts empty.
	srv := server.New(d.s, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
		close(served)
	}()

	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = &serveClient{
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			base: "http://" + ln.Addr().String(),
		}
		if cfg.traced {
			clients[i].rec = newRecorder()
		}
	}
	exchanges := make([]exchange, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(ops); i += serveClients {
				exchanges[i] = c.do(i, ops[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	stats := srv.Stats()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // nothing is in flight; a timeout would only delay exit
	_ = hs.Shutdown(ctx)
	<-served
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}

	var m measure
	for _, c := range clients {
		m.merge(&c.m)
	}
	results := make([][]result, len(ops))
	cached := make([]bool, len(ops))
	for i, ex := range exchanges {
		if results[i], cached[i], err = ex.decode(ops[i]); err != nil {
			r.fail("op %d: %v", i, err)
		}
		m.communities += len(results[i])
	}
	r.attempted = len(ops)
	m.endToEnd(r, d, wall)

	// The server sorts a query's keywords, and cores follow that order,
	// so the library reference must ask in the same order.
	norm := make([]op, len(ops))
	for i, o := range ops {
		o.Keywords = o.query().Normalized().Keywords
		norm[i] = o
	}
	checkAnswers(cfg, r, norm, results, d.s)

	if cfg.traced {
		serveLedger(r, d, norm, exchanges, cached, stats)
		recs := make([]*recorder, len(clients))
		for i, c := range clients {
			recs[i] = c.rec
		}
		spans := mergeSpans(recs...)
		if err := checkLedger(selfTimes(spans), rootTime(spans)); err != nil {
			r.fail("%v", err)
		}
		if err := writeTrace(cfg.outDir, r.workload, spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// serveLedger fills the server.* lines: latencies by how a request was
// served, what the server counted, and what HTTP adds to a miss.
func serveLedger(r *report, d *dataset, ops []op, exchanges []exchange, cached []bool, stats server.StatsSnapshot) {
	setupLedger(r, d)
	var hit, miss, stream, ttfb, overhead samples
	var bytesSum float64
	misses := 0
	var discard measure
	for i, ex := range exchanges {
		bytesSum += float64(len(ex.body))
		ttfb.add(ex.ttfb)
		switch {
		case ops[i].Kind == "all":
			stream.add(ex.total)
		case cached[i]:
			hit.add(ex.total)
		default:
			miss.add(ex.total)
			// One miss in four runs again on the Searcher directly; the
			// difference is decode, admission, cache, encode and TCP.
			if misses++; misses%4 == 1 {
				t := time.Now()
				if _, err := runOp(context.Background(), d.s, ops[i], &discard); err == nil {
					overhead.add(ex.total - time.Since(t))
				}
			}
		}
	}
	r.metrics["server.hit_ms_p50"] = hit.p(0.50)
	r.metrics["server.miss_ms_p50"] = miss.p(0.50)
	r.metrics["server.stream_ms_p50"] = stream.p(0.50)
	r.metrics["server.ttfb_ms_p50"] = ttfb.p(0.50)
	r.metrics["server.overhead_ms_p50"] = overhead.p(0.50)
	r.metrics["server.cache_hit_share"] = ratio(float64(stats.CacheHits), float64(stats.CacheHits+stats.CacheMisses))
	r.metrics["server.singleflight_shared"] = float64(stats.SingleflightShared)
	r.metrics["server.admission_rejections"] = float64(stats.AdmissionRejections)
	r.metrics["server.resp_bytes_mean"] = ratio(bytesSum, float64(len(exchanges)))
}
