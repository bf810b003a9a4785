package server

// Fault-injection and robustness conformance: bounded queue, timeout,
// panic isolation, client disconnects, graceful drain under load, and
// concurrent submissions. These tests override the server's exec hook
// (installed before the worker pool starts, see newTestServer) to get
// controllable blocking, panicking, and failing runs; run them with
// -race — the suite is as much about the locking as the semantics.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/traffic"
)

// TestBoundedQueueRejects pins the overload contract: a full queue
// answers 429 + Retry-After instead of queueing without bound, and an
// in-flight duplicate is joined (X-Cache: pending), not re-enqueued.
func TestBoundedQueueRejects(t *testing.T) {
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		<-release
		return []byte("{}\n"), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, exec)
	// Registered after newTestServer so it runs (LIFO) before the
	// server's shutdown cleanup — a blocked worker cannot drain.
	t.Cleanup(func() { close(release) })

	st1 := decodeStatus(t, post(t, ts, testScenarioBytes(t, 1)))
	waitState(t, ts, st1.ID, stateRunning) // worker claimed it; queue empty

	resp := post(t, ts, testScenarioBytes(t, 2)) // fills the queue
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission status %d", resp.StatusCode)
	}
	readAll(t, resp)

	resp = post(t, ts, testScenarioBytes(t, 3)) // overflows it
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	readAll(t, resp)
	if rej := s.rejected.Value(); rej != 1 {
		t.Fatalf("rejections = %d, want 1", rej)
	}

	// Submitting the running scenario again joins the in-flight run.
	resp = post(t, ts, testScenarioBytes(t, 1))
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "pending" {
		t.Fatalf("in-flight duplicate: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if d := decodeStatus(t, resp); d.ID != st1.ID {
		t.Fatalf("duplicate joined run %s, want %s", d.ID, st1.ID)
	}
}

// TestPanicIsolation: a panicking run becomes a failed run with the
// panic in its error; the worker, the server, and later submissions
// are unaffected, and resubmitting the failed content retries it. A
// panic in a campaign point, raised on the campaign's worker pool,
// fails its run the same way.
func TestPanicIsolation(t *testing.T) {
	calls := 0
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		calls++
		switch calls {
		case 1:
			panic("injected kernel fault")
		case 3:
			traffic.Campaign(traffic.CampaignConfig{Base: traffic.Config{Nodes: 1},
				Rates: []float64{0.01, 0.02}, Workers: 2})
		}
		return []byte("{}\n"), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, exec)

	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 9)))
	d := waitTerminal(t, ts, st.ID)
	if runState(d.State) != stateFailed || !strings.Contains(d.Error, "injected kernel fault") {
		t.Fatalf("after panic: state %q, error %q", d.State, d.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed run's result status %d, want 500", resp.StatusCode)
	}
	readAll(t, resp)
	if f := s.failed.Value(); f != 1 {
		t.Fatalf("failures = %d, want 1", f)
	}

	// Failures are not cached: the same content retries as a new run
	// under the same id, and this time succeeds.
	resp = post(t, ts, testScenarioBytes(t, 9))
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("retry after failure: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if d := decodeStatus(t, resp); d.ID != st.ID {
		t.Fatalf("retry got id %s, want the content address %s", d.ID, st.ID)
	}
	waitState(t, ts, st.ID, stateDone)

	st = decodeStatus(t, post(t, ts, testScenarioBytes(t, 10)))
	d = waitTerminal(t, ts, st.ID)
	if runState(d.State) != stateFailed || !strings.Contains(d.Error, "need at least 2 nodes") {
		t.Fatalf("after a campaign point's panic: state %q, error %q", d.State, d.Error)
	}
	st = decodeStatus(t, post(t, ts, testScenarioBytes(t, 11)))
	waitState(t, ts, st.ID, stateDone)
	if f := s.failed.Value(); f != 2 {
		t.Fatalf("failures = %d, want 2", f)
	}
}

// TestRunTimeout: a run past RunTimeout is reported failed; a late
// result from the still-running goroutine is discarded, not resurrected.
func TestRunTimeout(t *testing.T) {
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		<-release
		return []byte("late result that must be dropped"), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, RunTimeout: 30 * time.Millisecond}, exec)
	t.Cleanup(func() { close(release) })

	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 21)))
	d := waitTerminal(t, ts, st.ID)
	if runState(d.State) != stateFailed || !strings.Contains(d.Error, "server timeout") {
		t.Fatalf("after timeout: state %q, error %q", d.State, d.Error)
	}
}

// TestProgressStreamsLive reads the JSONL stream of a run that is
// still executing: lines arrive while it runs, each one parses, and
// the stream terminates after the run does. A second client asks for
// SSE and gets the same lines framed as events.
func TestProgressStreamsLive(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		rig.Progress.SetTotal(3)
		rig.Progress.PointStart()
		rig.Progress.PointDone("injected/point@1", 1)
		close(started)
		<-release
		return []byte("{}\n"), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1}, exec)

	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 31)))
	<-started

	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/progress?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("progress Content-Type = %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for i := 0; i < 2; i++ { // two live lines while the run blocks
		if !scanner.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, scanner.Err())
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(scanner.Bytes(), &snap); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, scanner.Text())
		}
		if snap.PointsDone != 1 || snap.PointsTotal != 3 {
			t.Fatalf("live line %d points = %d/%d, want 1/3", i, snap.PointsDone, snap.PointsTotal)
		}
	}
	close(release)
	for scanner.Scan() { // drain to the terminal line; must end
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	// SSE framing on request.
	waitState(t, ts, st.ID, stateDone)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/progress", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	body := readAll(t, sresp)
	if !bytes.HasPrefix(body, []byte("data: {")) || !bytes.HasSuffix(body, []byte("\n\n")) {
		t.Fatalf("SSE framing wrong:\n%s", body)
	}
}

// TestClientDisconnect: a progress client that goes away mid-stream
// releases its handler; the run and the rest of the service are
// unaffected.
func TestClientDisconnect(t *testing.T) {
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		<-release
		return []byte("{}\n"), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1}, exec)
	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 41)))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/progress?interval=20ms", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil { // one byte proves the stream is live
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	close(release)
	waitState(t, ts, st.ID, stateDone)
	readAll(t, mustGet(t, ts.URL+"/healthz"))
}

// TestGracefulDrain: during shutdown the running run completes and
// serves its result, the queued run is reported cancelled, and new
// submissions get 503.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return []byte("drained result\n"), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, exec)

	stA := decodeStatus(t, post(t, ts, testScenarioBytes(t, 51)))
	<-started
	stB := decodeStatus(t, post(t, ts, testScenarioBytes(t, 52)))

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// The queued run is cancelled promptly, while A is still running.
	dB := waitTerminal(t, ts, stB.ID)
	if runState(dB.State) != stateCancelled || !strings.Contains(dB.Error, "shut down") {
		t.Fatalf("queued run after drain: state %q, error %q", dB.State, dB.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + stB.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("cancelled run's result status %d, want 410", resp.StatusCode)
	}
	readAll(t, resp)

	// New submissions are refused while draining.
	resp = post(t, ts, testScenarioBytes(t, 53))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: status %d, want 503", resp.StatusCode)
	}
	readAll(t, resp)

	// The running run completes and its result is served.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := waitTerminal(t, ts, stA.ID); runState(d.State) != stateDone {
		t.Fatalf("running run after drain: state %q (error %q)", d.State, d.Error)
	}
	got := readAll(t, mustGet(t, ts.URL+"/v1/runs/"+stA.ID+"/result"))
	if string(got) != "drained result\n" {
		t.Fatalf("drained result = %q", got)
	}
	if c := s.cancelled.Value(); c != 1 {
		t.Fatalf("cancellations = %d, want 1", c)
	}
}

// TestConcurrentSubmissions hammers the front door from many
// goroutines with two distinct scenarios: exactly two runs execute,
// every response for the same content is byte-identical, and nothing
// races (the suite runs under -race in CI).
func TestConcurrentSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4}, nil)
	bodies := [][]byte{testScenarioBytes(t, 61), testScenarioBytes(t, 62)}

	const clients = 16
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bodies[i%2]
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var id string
			switch resp.StatusCode {
			case http.StatusOK: // raced onto a finished run
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				results[i] = b
				return
			case http.StatusAccepted:
				var d statusDoc
				json.NewDecoder(resp.Body).Decode(&d)
				resp.Body.Close()
				id = d.ID
			default:
				t.Errorf("client %d: submit status %d", i, resp.StatusCode)
				resp.Body.Close()
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				rr, err := http.Get(ts.URL + "/v1/runs/" + id + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(rr.Body)
				rr.Body.Close()
				if rr.StatusCode == http.StatusOK {
					results[i] = b
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("client %d: result never ready (last status %d)", i, rr.StatusCode)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 2; i < clients; i++ {
		if !bytes.Equal(results[i], results[i%2]) {
			t.Fatalf("client %d result differs from client %d", i, i%2)
		}
	}
	if bytes.Equal(results[0], results[1]) {
		t.Fatal("different seeds produced identical results")
	}
	if subs := s.submitted.Value(); subs != 2 {
		t.Fatalf("runs enqueued = %d, want 2 (dedup under concurrency)", subs)
	}
}

// waitTerminal polls until the run reaches any terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) statusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		d := decodeStatus(t, resp)
		switch runState(d.State) {
		case stateDone, stateFailed, stateCancelled:
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached a terminal state (stuck in %q)", id, d.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
