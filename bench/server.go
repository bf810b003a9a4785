package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"gonoc/internal/scenario"
	"gonoc/internal/server"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

// The server-mix workload: a closed loop of mixClients clients, one
// connection each, against an in-process nocserver. Every fourth request
// (at a seeded position in each block of four) is a miss: a fresh
// cpu-dma-display document. The others resubmit one of that client's last
// mixRecent completed documents and must be served from the cache.
const (
	mixClients = 2
	mixRecent  = 32
	mixBlock   = 4
)

// mixService is one in-process nocserver behind a loopback listener.
type mixService struct {
	srv *server.Server
	ts  *httptest.Server
}

func startService() *mixService {
	srv := server.New(server.Config{})
	return &mixService{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// close stops the listener and drains the worker pool; it returns once
// every server goroutine has exited.
func (m *mixService) close() error {
	m.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m.srv.Shutdown(ctx)
}

// cacheCounts reads the service's submitted and cache-hit counters from
// /metrics.
func (m *mixService) cacheCounts() (submitted, hits int, err error) {
	resp, err := http.Get(m.ts.URL + "/metrics")
	if err != nil {
		return 0, 0, fmt.Errorf("reading /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		switch name {
		case "noc_server_runs_submitted_total":
			submitted, err = int(v), perr
		case "noc_server_cache_hits_total":
			hits, err = int(v), perr
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /metrics line %q: %w", sc.Text(), err)
		}
	}
	return submitted, hits, sc.Err()
}

// mixResult aggregates one closed-loop run over all clients.
type mixResult struct {
	elapsed                   time.Duration
	misses, hits              []time.Duration // whole-request latencies
	submit, wait, result      []time.Duration // the three phases of each miss
	failed                    int
	errs                      []string
	firstDoc, firstMissResult []byte // client 0's first miss, checked against a direct run
}

func (r *mixResult) requests() int { return len(r.misses) + len(r.hits) }

func (r *mixResult) merge(o *mixResult) {
	r.misses = append(r.misses, o.misses...)
	r.hits = append(r.hits, o.hits...)
	r.submit = append(r.submit, o.submit...)
	r.wait = append(r.wait, o.wait...)
	r.result = append(r.result, o.result...)
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// mixLoop runs the closed loop: each client sends its next request only
// after the previous one completes. With ops > 0 every client sends
// exactly ops requests; otherwise clients stop starting requests at the
// deadline. phase keeps the miss seeds of separate loops in one process
// disjoint, so a later loop's misses are never served from an earlier
// loop's cache entries.
func mixLoop(svc *mixService, sc scale, seed int64, phase, ops int, deadline time.Time, tr *tracer) *mixResult {
	results := make([]*mixResult, mixClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &mixClient{
				svc: svc, tr: tr, tid: c + 1, sc: sc,
				rng: rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + int64(c))),
				hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
				res: &mixResult{},
			}
			defer cl.hc.CloseIdleConnections()
			for i := 0; ops <= 0 || i < ops; i++ {
				if ops <= 0 && !time.Now().Before(deadline) {
					break
				}
				cl.step(i)
			}
			results[c] = cl.res
		}(c)
	}
	wg.Wait()
	out := &mixResult{elapsed: time.Since(start)}
	out.firstDoc, out.firstMissResult = results[0].firstDoc, results[0].firstMissResult
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// mixClient is one closed-loop caller with its own connection.
type mixClient struct {
	svc     *mixService
	tr      *tracer
	tid     int
	sc      scale
	rng     *rand.Rand
	hc      *http.Client
	res     *mixResult
	recent  []doneDoc
	missPos int
}

// doneDoc is a completed miss: the document and the result it produced.
type doneDoc struct {
	doc, result []byte
}

func (c *mixClient) fail(format string, args ...any) {
	c.res.failed++
	if len(c.res.errs) < 5 {
		c.res.errs = append(c.res.errs, fmt.Sprintf(format, args...))
	}
}

// step sends request i. The first request of every client is a miss, so
// there is always a completed document to hit.
func (c *mixClient) step(i int) {
	if i%mixBlock == 0 {
		c.missPos = c.rng.Intn(mixBlock)
		if i == 0 {
			c.missPos = 0
		}
	}
	if i%mixBlock == c.missPos || len(c.recent) == 0 {
		c.miss()
		return
	}
	c.hit(c.recent[c.rng.Intn(len(c.recent))])
}

// miss submits a fresh document, follows its /progress stream to the
// terminal line, and fetches the result.
func (c *mixClient) miss() {
	doc, err := missDoc(c.sc, c.rng.Int63n(1<<62)+2) // never 0 or 1: both mean the default seed
	if err != nil {
		c.fail("encoding miss document: %v", err)
		return
	}
	// The client checks its document the way the service will, so a
	// document the service would refuse is reported here, not as a
	// server failure.
	sp := c.tr.start("scenario.Load", "scenario", c.tid)
	loaded, err := scenario.Load(bytes.NewReader(doc))
	c.tr.end(sp)
	if err != nil {
		c.fail("miss document does not load: %v", err)
		return
	}
	sp = c.tr.start("scenario.Fingerprint", "scenario", c.tid)
	fp, err := loaded.Fingerprint()
	c.tr.end(sp)
	if err != nil {
		c.fail("fingerprinting miss document: %v", err)
		return
	}

	req := c.tr.start("miss", "bench", c.tid)
	t0 := time.Now()
	sp = c.tr.start("http.submit", "server", c.tid)
	code, hdr, _, err := c.do(http.MethodPost, "/v1/runs", doc)
	c.tr.end(sp)
	t1 := time.Now()
	if err != nil || code != http.StatusAccepted || hdr.Get("X-Cache") != "miss" {
		c.tr.end(req)
		c.fail("miss submit: status %d, X-Cache %q, err %v", code, hdr.Get("X-Cache"), err)
		return
	}
	// The run id must come from the document's content address.
	loc := hdr.Get("Location")
	if id := path.Base(loc); len(id) < 2 || !strings.HasPrefix(strings.TrimPrefix(fp, "sha256:"), id[1:]) {
		c.tr.end(req)
		c.fail("miss submit: run %q is not keyed on fingerprint %s", loc, fp)
		return
	}
	sp = c.tr.start("http.wait", "server", c.tid)
	code, _, _, err = c.do(http.MethodGet, loc+"/progress", nil)
	c.tr.end(sp)
	t2 := time.Now()
	if err != nil || code != http.StatusOK {
		c.tr.end(req)
		c.fail("miss progress: status %d, err %v", code, err)
		return
	}
	sp = c.tr.start("http.result", "server", c.tid)
	code, _, body, err := c.do(http.MethodGet, loc+"/result", nil)
	c.tr.end(sp)
	t3 := time.Now()
	c.tr.end(req)
	if err != nil || code != http.StatusOK || len(body) == 0 {
		c.fail("miss result: status %d, %d bytes, err %v", code, len(body), err)
		return
	}
	c.res.misses = append(c.res.misses, t3.Sub(t0))
	c.res.submit = append(c.res.submit, t1.Sub(t0))
	c.res.wait = append(c.res.wait, t2.Sub(t1))
	c.res.result = append(c.res.result, t3.Sub(t2))
	if c.res.firstDoc == nil {
		c.res.firstDoc, c.res.firstMissResult = doc, body
	}
	c.recent = append(c.recent, doneDoc{doc: doc, result: body})
	if len(c.recent) > mixRecent {
		c.recent = c.recent[1:]
	}
}

// hit resubmits a completed document; the service must answer from its
// cache with the bytes of the original result.
func (c *mixClient) hit(d doneDoc) {
	req := c.tr.start("hit", "bench", c.tid)
	t0 := time.Now()
	sp := c.tr.start("http.submit", "server", c.tid)
	code, hdr, body, err := c.do(http.MethodPost, "/v1/runs", d.doc)
	c.tr.end(sp)
	d0 := time.Since(t0)
	c.tr.end(req)
	switch {
	case err != nil || code != http.StatusOK || hdr.Get("X-Cache") != "hit":
		c.fail("hit: status %d, X-Cache %q, err %v", code, hdr.Get("X-Cache"), err)
	case !bytes.Equal(body, d.result):
		c.fail("hit: cached bytes differ from the miss's result")
	default:
		c.res.hits = append(c.res.hits, d0)
	}
}

// do sends one request and reads the whole body, so the connection is
// reused for the next request.
func (c *mixClient) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.svc.ts.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// checkFirstMiss compares the service's bytes for a miss with a direct
// run of the same document through the library the service wraps.
func checkFirstMiss(r *mixResult) error {
	if r.firstDoc == nil {
		return fmt.Errorf("no miss completed")
	}
	sc, err := scenario.Load(bytes.NewReader(r.firstDoc))
	if err != nil {
		return fmt.Errorf("reloading first miss: %w", err)
	}
	tc, err := sc.TransConfig()
	if err != nil {
		return fmt.Errorf("lowering first miss: %w", err)
	}
	var want bytes.Buffer
	if err := stats.WriteJSON(&want, traffic.RunTrans(tc)); err != nil {
		return fmt.Errorf("encoding direct run: %w", err)
	}
	if !bytes.Equal(want.Bytes(), r.firstMissResult) {
		return fmt.Errorf("service result for the first miss differs from a direct RunTrans (%d vs %d bytes)",
			len(r.firstMissResult), want.Len())
	}
	return nil
}

// checkCacheCounts cross-checks the client-side miss and hit counts with
// the service's own counters.
func checkCacheCounts(svc *mixService, misses, hits int) error {
	submitted, cached, err := svc.cacheCounts()
	if err != nil {
		return err
	}
	if submitted != misses || cached != hits {
		return fmt.Errorf("service counted %d submissions and %d cache hits, clients saw %d misses and %d hits",
			submitted, cached, misses, hits)
	}
	return nil
}
