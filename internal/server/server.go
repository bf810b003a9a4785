// Package server is the simulation-as-a-service layer: an HTTP API
// that accepts declarative scenario submissions (internal/scenario),
// runs them on a bounded worker pool, and memoizes results behind a
// content-addressed cache.
//
// The cache is sound because of the repo's byte-identical-replay
// convention: a validated scenario plus its seed fully determines the
// result bytes (pinned by the golden and E14 tests), so the scenario
// fingerprint (scenario.Fingerprint) is a complete key for the result.
// Submitting the same scenario twice runs it once; the second response
// is the stored bytes, identical to the first and to what
// `noctraffic -scenario FILE -wall=false -json` prints. Scenario
// decoding is a pure function of the request body, so a byte-identical
// resubmission finds its run by a sha256 of the body, without decoding.
//
// API (docs/SERVER.md is the reference):
//
//	POST /v1/runs                  submit a scenario document
//	GET  /v1/runs                  list known runs
//	GET  /v1/runs/{id}             one run's status
//	GET  /v1/runs/{id}/result      the result JSON (when done)
//	GET  /v1/runs/{id}/progress    live JSONL (or SSE) snapshot stream
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  liveness + draining state
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
)

// Config sizes the service. Zero values pick the defaults noted on
// each field.
type Config struct {
	// Workers is the run worker-pool size (default GOMAXPROCS). Each
	// worker executes one run at a time; campaign runs additionally
	// parallelize across points inside the worker (CampaignWorkers).
	Workers int

	// QueueDepth bounds the runs accepted but not yet started (default
	// 64). A full queue rejects submissions with 429 + Retry-After
	// instead of queueing without bound.
	QueueDepth int

	// CacheEntries bounds the retained runs, finished ones included
	// (default 256). Eviction is oldest-terminal-first; queued and
	// running runs are never evicted.
	CacheEntries int

	// RunTimeout caps one run's wall time (0 = unlimited). A run past
	// the cap is reported failed; the simulation goroutine has no
	// cancellation point, so it finishes in the background and its
	// result is discarded.
	RunTimeout time.Duration

	// MaxBodyBytes caps the submitted scenario document (default 1 MiB).
	MaxBodyBytes int64

	// CampaignWorkers caps the per-run campaign worker pool (0 = let the
	// scenario decide). The cap keeps one wide campaign from
	// oversubscribing a host that is also running other submissions.
	CampaignWorkers int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server owns the run store, the worker pool, and the service-level
// metrics registry. Create with New; serve Handler(); stop with
// Shutdown.
type Server struct {
	cfg Config
	reg *metrics.Registry

	submitted *metrics.Counter
	cacheHits *metrics.Counter
	completed *metrics.Counter
	failed    *metrics.Counter
	cancelled *metrics.Counter
	rejected  *metrics.Counter
	evicted   *metrics.Counter
	running   *metrics.Gauge

	// exec runs one accepted run's scenario on its rig and returns the
	// result bytes. It is the scenario executor in production; the
	// conformance tests override it to inject blocking, panicking, and
	// failing runs.
	exec func(*scenario.Scenario, *metrics.Rig) ([]byte, error)

	mu       sync.Mutex
	runs     map[string]*run
	order    []string // insertion order, for oldest-terminal-first eviction
	draining bool
	// digests maps the sha256 of the body that created each stored run
	// to its id: one entry per run, dropped with it (deleteLocked).
	digests map[[sha256.Size]byte]string

	queue chan *run
	wg    sync.WaitGroup
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

// newServer builds the service without starting workers — the seam the
// tests use to install an exec hook race-free before the pool spins up.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		runs:    make(map[string]*run),
		digests: make(map[[sha256.Size]byte]string),
		queue:   make(chan *run, cfg.QueueDepth),
	}
	s.exec = s.runScenario
	s.submitted = s.reg.Counter("noc_server_runs_submitted_total", "scenario submissions accepted (new runs enqueued)")
	s.cacheHits = s.reg.Counter("noc_server_cache_hits_total", "submissions served from the content-addressed result cache")
	s.completed = s.reg.Counter("noc_server_runs_completed_total", "runs finished with a result")
	s.failed = s.reg.Counter("noc_server_runs_failed_total", "runs that errored, panicked, or timed out")
	s.cancelled = s.reg.Counter("noc_server_runs_cancelled_total", "queued runs cancelled by shutdown")
	s.rejected = s.reg.Counter("noc_server_rejected_total", "submissions rejected because the queue was full")
	s.evicted = s.reg.Counter("noc_server_cache_evicted_total", "finished runs evicted from the cache")
	s.running = s.reg.Gauge("noc_server_runs_running", "runs currently executing")
	s.reg.GaugeFunc("noc_server_queue_depth", "runs accepted but not yet started", func() float64 {
		return float64(len(s.queue))
	})
	s.reg.GaugeFunc("noc_server_runs_cached", "runs held in the store, finished ones included", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.runs))
	})
	return s
}

func (s *Server) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Handler returns the service's routes. The mux uses Go 1.22 method
// patterns, so a wrong method gets 405 for free.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/runs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

// handleSubmit is the front door. Semantics, in order:
//
//	oversized body      413
//	resubmitted body    the answer below for a finished or in-flight
//	                    duplicate, found by the body's digest before
//	                    decoding (not while draining)
//	malformed scenario  400 with line:column or field path
//	draining            503 + Retry-After
//	finished duplicate  200, X-Cache: hit, the stored result bytes
//	in-flight duplicate 202, X-Cache: pending, the existing run's status
//	failed/cancelled    retried as a fresh run (errors are not cached)
//	queue full          429 + Retry-After
//	accepted            202, X-Cache: miss, Location + status
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body := http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.apiError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("scenario document exceeds the %d-byte limit", mbe.Limit), nil)
			return
		}
		s.apiError(w, http.StatusBadRequest, "reading request body: "+err.Error(), nil)
		return
	}
	// The same bytes always decode to the same fingerprint, so the body
	// that created a run finds it again without scenario.Load and
	// Fingerprint. An unknown digest gives the id "", which names no run.
	digest := sha256.Sum256(data)
	s.mu.Lock()
	dup, st := s.answeringLocked(s.digests[digest])
	s.mu.Unlock()
	if dup != nil {
		s.answerDuplicate(w, dup, st)
		return
	}

	sc, err := scenario.Load(bytes.NewReader(data))
	if err != nil {
		s.apiError(w, http.StatusBadRequest, err.Error(), err)
		return
	}
	fp, err := sc.Fingerprint()
	if err != nil {
		s.apiError(w, http.StatusBadRequest, err.Error(), err)
		return
	}
	id := runID(fp)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		s.apiError(w, http.StatusServiceUnavailable, "server is draining", nil)
		return
	}
	if dup, st := s.answeringLocked(id); dup != nil {
		s.mu.Unlock()
		s.answerDuplicate(w, dup, st)
		return
	}
	if _, ok := s.runs[id]; ok {
		// A failed or cancelled run is not a result: resubmission
		// retries it under the same id with a fresh run.
		s.deleteLocked(id)
	}
	r := newRun(id, fp, digest, sc)
	select {
	case s.queue <- r:
	default:
		s.mu.Unlock()
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.apiError(w, http.StatusTooManyRequests, "run queue is full", nil)
		return
	}
	s.runs[id] = r
	s.digests[digest] = id
	s.order = append(s.order, id)
	s.evictLocked()
	s.submitted.Inc()
	s.mu.Unlock()

	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Location", "/v1/runs/"+id)
	writeJSON(w, http.StatusAccepted, r.statusDoc())
}

// answeringLocked returns the stored run with this id, and its state,
// when that run answers a submission of its content: the server is not
// draining, and the run is finished or still queued or running. It
// returns nil otherwise, for a failed or cancelled run as for an
// unknown id. Call with s.mu held.
func (s *Server) answeringLocked(id string) (*run, runState) {
	r, ok := s.runs[id]
	if !ok || s.draining {
		return nil, ""
	}
	switch st := r.currentState(); st {
	case stateDone, stateQueued, stateRunning:
		return r, st
	}
	return nil, ""
}

// answerDuplicate answers a submission of r's content from r, which was
// in state st under s.mu: a finished run's stored bytes as a cache hit,
// or a queued or running run's status.
func (s *Server) answerDuplicate(w http.ResponseWriter, r *run, st runState) {
	if st == stateDone {
		s.cacheHits.Inc()
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Write(r.resultBytes())
		return
	}
	w.Header().Set("X-Cache", "pending")
	w.Header().Set("Location", "/v1/runs/"+r.id)
	writeJSON(w, http.StatusAccepted, r.statusDoc())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	docs := make([]statusDoc, 0, len(s.runs))
	for _, id := range s.order {
		if r, ok := s.runs[id]; ok {
			docs = append(docs, r.statusDoc())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": docs})
}

func (s *Server) handleGetRun(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.apiError(w, http.StatusNotFound, "no such run", nil)
		return
	}
	writeJSON(w, http.StatusOK, r.statusDoc())
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.apiError(w, http.StatusNotFound, "no such run", nil)
		return
	}
	switch r.currentState() {
	case stateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(r.resultBytes())
	case stateFailed:
		s.apiError(w, http.StatusInternalServerError, r.errorMessage(), nil)
	case stateCancelled:
		s.apiError(w, http.StatusGone, r.errorMessage(), nil)
	default:
		// Not ready: the status doc tells the client where it stands.
		writeJSON(w, http.StatusAccepted, r.statusDoc())
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": draining})
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `gonoc simulation service (docs/SERVER.md)

  POST /v1/runs                submit a scenario document
  GET  /v1/runs                list known runs
  GET  /v1/runs/{id}           run status
  GET  /v1/runs/{id}/result    result JSON (when done)
  GET  /v1/runs/{id}/progress  live JSONL/SSE snapshot stream
  GET  /metrics                Prometheus text exposition
  GET  /healthz                liveness + draining state
`)
}

func (s *Server) lookup(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Shutdown drains the service: new submissions get 503, queued runs
// are cancelled, running runs complete. It returns when the worker
// pool is idle or ctx expires. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		// No submission can enqueue after draining flips (the check and
		// the send share one critical section), so the queue only
		// shrinks from here: empty it, cancelling what never started.
	drain:
		for {
			select {
			case r := <-s.queue:
				if r.cancel("server shut down before the run started") {
					s.cancelled.Inc()
				}
			default:
				break drain
			}
		}
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- error and JSON plumbing ----

// apiError is the structured error body: a message always, plus the
// line:column of a malformed document or the JSON path of an invalid
// field when the underlying error carries one.
type apiErrorDoc struct {
	Error struct {
		Message string `json:"message"`
		Line    int    `json:"line,omitempty"`
		Column  int    `json:"column,omitempty"`
		Field   string `json:"field,omitempty"`
	} `json:"error"`
}

func (s *Server) apiError(w http.ResponseWriter, code int, msg string, cause error) {
	var doc apiErrorDoc
	doc.Error.Message = msg
	var perr *scenario.ParseError
	var ferr *scenario.FieldError
	if errors.As(cause, &perr) {
		doc.Error.Line, doc.Error.Column = perr.Line, perr.Col
	} else if errors.As(cause, &ferr) {
		doc.Error.Field = ferr.Field
	}
	writeJSON(w, code, doc)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
