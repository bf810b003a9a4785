package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/stats"
)

// runState is a run's lifecycle position. Transitions only move
// forward: queued → running → done|failed, or queued → cancelled.
type runState string

const (
	stateQueued    runState = "queued"
	stateRunning   runState = "running"
	stateDone      runState = "done"
	stateFailed    runState = "failed"
	stateCancelled runState = "cancelled"
)

// run is one accepted scenario: its identity (the fingerprint-derived
// id, and the sha256 of the request body that created it), the
// scenario's name and mode, and the state machine the workers and
// handlers share. The result bytes are written once, on the
// running→done transition, and never mutated — handlers hand them out
// by reference.
type run struct {
	id     string
	fp     string
	digest [sha256.Size]byte
	name   string
	mode   scenario.Mode

	mu     sync.Mutex
	state  runState
	errMsg string
	result []byte
	// sc and rig are what the run executes with: the scenario and its
	// own metrics rig (registry + self-profile + progress, the backing
	// of the /progress stream). The terminal transition drops both and
	// keeps final, the rig's last snapshot rendered, so a finished run
	// holds only bytes and reports the values it had when it finished.
	sc    *scenario.Scenario
	rig   *metrics.Rig
	final metrics.Frozen

	// doneCh closes on the first terminal transition; the progress
	// stream and the conformance tests select on it.
	doneCh chan struct{}
}

// runID derives the run id from the scenario fingerprint: the first 16
// hex digits are plenty at any plausible cache size, and a shared
// prefix makes "same content, same run" visible in the URL.
func runID(fp string) string {
	hex := strings.TrimPrefix(fp, "sha256:")
	if len(hex) > 16 {
		hex = hex[:16]
	}
	return "r" + hex
}

func newRun(id, fp string, digest [sha256.Size]byte, sc *scenario.Scenario) *run {
	return &run{
		id: id, fp: fp, digest: digest, name: sc.Name, mode: sc.Mode(),
		sc:     sc,
		rig:    metrics.NewRig(),
		state:  stateQueued,
		doneCh: make(chan struct{}),
	}
}

func (r *run) currentState() runState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *run) terminal() bool {
	switch r.currentState() {
	case stateDone, stateFailed, stateCancelled:
		return true
	}
	return false
}

func (r *run) resultBytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result
}

func (r *run) errorMessage() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errMsg
}

// begin claims the run for a worker and hands it the scenario and rig
// to execute with; false means it was cancelled while queued.
func (r *run) begin() (*scenario.Scenario, *metrics.Rig, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateQueued {
		return nil, nil, false
	}
	r.state = stateRunning
	return r.sc, r.rig, true
}

// complete lands the result; false means a terminal state (timeout)
// won the race and the bytes are discarded.
func (r *run) complete(result []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateRunning {
		return false
	}
	r.finishLocked(stateDone, "", result)
	return true
}

// fail marks the run failed (execution error, panic, or timeout);
// false means it was already terminal.
func (r *run) fail(msg string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateQueued && r.state != stateRunning {
		return false
	}
	r.finishLocked(stateFailed, msg, nil)
	return true
}

// cancel marks a still-queued run cancelled (shutdown); a run a worker
// already claimed keeps running.
func (r *run) cancel(msg string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateQueued {
		return false
	}
	r.finishLocked(stateCancelled, msg, nil)
	return true
}

// finishLocked is every terminal transition. It freezes the rig's
// state and drops the rig and the scenario: a simulation that outlives
// its timeout keeps moving its own rig, and a stream opened earlier
// keeps reading it, but the run no longer changes. Call with r.mu held.
func (r *run) finishLocked(st runState, msg string, result []byte) {
	r.state, r.errMsg, r.result = st, msg, result
	r.final = r.rig.Freeze()
	r.sc, r.rig = nil, nil
	close(r.doneCh)
}

// live returns the rig of a run that has not finished, or nil and the
// frozen record of one that has.
func (r *run) live() (*metrics.Rig, metrics.Frozen) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rig, r.final
}

// statusDoc is the run's wire status.
type statusDoc struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Scenario    string `json:"scenario"`
	Mode        string `json:"mode"`
	State       string `json:"state"`
	Error       string `json:"error,omitempty"`
	PointsDone  int    `json:"points_done"`
	PointsTotal int    `json:"points_total"`
	ResultURL   string `json:"result_url,omitempty"`
	ProgressURL string `json:"progress_url"`
}

func (r *run) statusDoc() statusDoc {
	r.mu.Lock()
	state, errMsg, rig, final := r.state, r.errMsg, r.rig, r.final
	r.mu.Unlock()
	if rig != nil {
		ps := rig.Progress.Snapshot()
		final.PointsDone, final.PointsTotal = ps.PointsDone, ps.PointsTotal
	}
	d := statusDoc{
		ID:          r.id,
		Fingerprint: r.fp,
		Scenario:    r.name,
		Mode:        string(r.mode),
		State:       string(state),
		Error:       errMsg,
		PointsDone:  final.PointsDone,
		PointsTotal: final.PointsTotal,
		ProgressURL: "/v1/runs/" + r.id + "/progress",
	}
	if state == stateDone {
		d.ResultURL = "/v1/runs/" + r.id + "/result"
	}
	return d
}

// ---- execution ----

func (s *Server) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		s.execute(r)
	}
}

// execute drives one run to a terminal state. The simulation itself
// runs in a child goroutine so a panic there is contained (recovered
// into a failed state, never taking the worker down) and so the
// watchdog can declare a timeout without waiting on it. Exactly one
// terminal transition wins; a late result after a timeout is dropped.
func (s *Server) execute(r *run) {
	sc, rig, ok := r.begin()
	if !ok {
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	type outcome struct {
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("run panicked: %v", p)}
			}
		}()
		body, err := s.exec(sc, rig)
		ch <- outcome{body: body, err: err}
	}()

	var timeout <-chan time.Time
	if s.cfg.RunTimeout > 0 {
		t := time.NewTimer(s.cfg.RunTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case out := <-ch:
		if out.err != nil {
			if r.fail(out.err.Error()) {
				s.failed.Inc()
			}
			return
		}
		if r.complete(out.body) {
			s.completed.Inc()
		}
	case <-timeout:
		// The kernel has no cancellation point; the goroutine finishes
		// in the background and its (buffered) outcome is discarded.
		if r.fail(fmt.Sprintf("run exceeded the %s server timeout", s.cfg.RunTimeout)) {
			s.failed.Inc()
		}
	}
}

// runScenario executes a run's scenario through scenario.Execute, the
// executor the noctraffic CLI calls, wired to the run's own metrics
// rig, and serializes the mode result with stats.WriteJSON: the exact
// bytes `noctraffic -scenario FILE -wall=false -json` prints.
// Options.Wall stays off: the wall-clock self-profile is the one
// nondeterministic result field, and a cacheable result must be
// deterministic.
func (s *Server) runScenario(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
	rep, err := scenario.Execute(s.runnable(sc), scenario.Options{Metrics: rig})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := stats.WriteJSON(&buf, rep.Result()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runnable returns the scenario that executes: a copy with the
// CampaignWorkers cap applied to its campaign pool, or the stored one
// when the cap does not bind. The stored scenario stays as submitted;
// the worker count is not part of its fingerprint and does not reach
// the result bytes.
func (s *Server) runnable(sc *scenario.Scenario) *scenario.Scenario {
	c, limit := sc.Measure.Campaign, s.cfg.CampaignWorkers
	if c == nil || limit <= 0 || (c.Workers > 0 && c.Workers <= limit) {
		return sc
	}
	sc = sc.Clone()
	sc.Measure.Campaign.Workers = limit
	return sc
}
