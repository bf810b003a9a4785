package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

// newTestServer builds a service (with an optional exec hook installed
// before the worker pool starts, so the override is race-free) behind
// an httptest frontend, and tears both down in the right order.
func newTestServer(t *testing.T, cfg Config, exec func(*scenario.Scenario, *metrics.Rig) ([]byte, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	if exec != nil {
		s.exec = exec
	}
	s.start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// testScenarioBytes builds a small, fast packet scenario in canonical
// form; seed varies the fingerprint.
func testScenarioBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	warm := int64(50)
	sc := &scenario.Scenario{
		Version:  scenario.Version,
		Name:     "server-test",
		Seed:     seed,
		Fabric:   scenario.Fabric{Topology: "ring", Nodes: 4},
		Workload: scenario.Workload{Kind: scenario.KindPacket, Rate: 0.1},
		Measure:  scenario.Measure{Warmup: &warm, Measure: 300, Drain: 2000},
	}
	b, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, ts *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeStatus(t *testing.T, resp *http.Response) statusDoc {
	t.Helper()
	var d statusDoc
	if err := json.Unmarshal(readAll(t, resp), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// waitState polls the run's status until it reaches want (fatal on a
// different terminal state or on timeout).
func waitState(t *testing.T, ts *httptest.Server, id string, want runState) statusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		d := decodeStatus(t, resp)
		if runState(d.State) == want {
			return d
		}
		switch runState(d.State) {
		case stateDone, stateFailed, stateCancelled:
			t.Fatalf("run %s reached %q, want %q (error: %s)", id, d.State, want, d.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q waiting for %q", id, d.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLifecycleAndCacheIdentity is the core conformance check:
// submit → poll → result, then the same content again from the cache,
// byte-identical to the first response AND to an independent run of
// the same scenario through the traffic library (the bytes
// `noctraffic -scenario FILE -wall=false -json` prints).
func TestLifecycleAndCacheIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2}, nil)
	body := testScenarioBytes(t, 7)

	resp := post(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", got)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.Fingerprint == "" || st.State != string(stateQueued) && st.State != string(stateRunning) {
		t.Fatalf("bad initial status %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/runs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	waitState(t, ts, st.ID, stateDone)
	r1, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", r1.StatusCode)
	}
	first := readAll(t, r1)

	// Exact duplicate: served from cache, byte-identical.
	resp2 := post(t, ts, body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("duplicate submission: status %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if cached := readAll(t, resp2); !bytes.Equal(cached, first) {
		t.Fatalf("cache hit is not byte-identical:\n%s\nvs\n%s", cached, first)
	}

	// Same content under a different label: the fingerprint ignores
	// name/description, so this is the same run.
	relabeled, err := scenario.Load(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	relabeled.Name = "completely-different-label"
	relabeled.Description = "but the same declared run"
	rb, err := relabeled.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	resp3 := post(t, ts, rb)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("relabeled submission: status %d, X-Cache %q", resp3.StatusCode, resp3.Header.Get("X-Cache"))
	}
	readAll(t, resp3)

	// Independent byte-identity: run the scenario straight through the
	// traffic library (no server, no per-run metrics attached) and
	// serialize with the same stats.WriteJSON the CLI -json path uses.
	sc, err := scenario.Load(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.PacketConfig()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := stats.WriteJSON(&want, traffic.Run(cfg)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatalf("server result differs from a direct library run:\n%s\nvs\n%s", first, want.Bytes())
	}

	// A different seed is a different content address.
	resp4 := post(t, ts, testScenarioBytes(t, 8))
	if resp4.StatusCode != http.StatusAccepted || resp4.Header.Get("X-Cache") != "miss" {
		t.Fatalf("new-seed submission: status %d, X-Cache %q", resp4.StatusCode, resp4.Header.Get("X-Cache"))
	}
	st4 := decodeStatus(t, resp4)
	if st4.ID == st.ID {
		t.Fatalf("different seed mapped to the same run id %s", st.ID)
	}
	waitState(t, ts, st4.ID, stateDone)

	if hits := s.cacheHits.Value(); hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
	if subs := s.submitted.Value(); subs != 2 {
		t.Errorf("runs submitted = %d, want 2 (two distinct fingerprints)", subs)
	}
}

// TestSweepAndCampaignModes runs the two multi-point modes end to end
// and checks the result parses as the mode's library type with the
// expected point count — and that the progress endpoint of a finished
// run replays at least a final snapshot with the full point count.
func TestSweepAndCampaignModes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CampaignWorkers: 2}, nil)
	warm := int64(20)

	sweep := &scenario.Scenario{
		Version:  scenario.Version,
		Name:     "sweep-test",
		Fabric:   scenario.Fabric{Topology: "ring", Nodes: 4},
		Workload: scenario.Workload{Kind: scenario.KindPacket, Rate: 0.05},
		Measure:  scenario.Measure{Warmup: &warm, Measure: 150, Drain: 1500, SweepRates: []float64{0.02, 0.05, 0.08}},
	}
	sb, err := sweep.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, post(t, ts, sb))
	waitState(t, ts, st.ID, stateDone)
	var sr traffic.SweepResult
	if err := json.Unmarshal(readAll(t, mustGet(t, ts.URL+"/v1/runs/"+st.ID+"/result")), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 3 {
		t.Fatalf("sweep result has %d points, want 3", len(sr.Points))
	}

	camp := &scenario.Scenario{
		Version:  scenario.Version,
		Name:     "campaign-test",
		Fabric:   scenario.Fabric{Topology: "ring", Nodes: 4},
		Workload: scenario.Workload{Kind: scenario.KindPacket},
		Measure: scenario.Measure{Warmup: &warm, Measure: 150, Drain: 1500,
			Campaign: &scenario.Campaign{Topologies: []string{"ring", "crossbar"}, Rates: []float64{0.02, 0.05}}},
	}
	cb, err := camp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cst := decodeStatus(t, post(t, ts, cb))
	waitState(t, ts, cst.ID, stateDone)
	var cr traffic.CampaignResult
	if err := json.Unmarshal(readAll(t, mustGet(t, ts.URL+"/v1/runs/"+cst.ID+"/result")), &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Points) != 4 {
		t.Fatalf("campaign result has %d points, want 4", len(cr.Points))
	}
	// The worker count stays out of the result bytes; the cap shows in
	// the scenario copy that executes, and the submitted one is
	// untouched.
	submitted, err := scenario.Load(bytes.NewReader(cb))
	if err != nil {
		t.Fatal(err)
	}
	if w := s.runnable(submitted).Measure.Campaign.Workers; w != 2 {
		t.Fatalf("campaign executes on %d workers, want the server's cap of 2", w)
	}
	if submitted.Measure.Campaign.Workers != 0 {
		t.Fatalf("capping mutated the submitted scenario: workers %d", submitted.Measure.Campaign.Workers)
	}
	if cr.Wall != nil {
		t.Fatal("campaign result carries a wall-clock block; results must stay deterministic")
	}

	// The finished run's progress stream replays at least one snapshot
	// with the final counters.
	snaps, err := metrics.ParseSnapshots(mustGet(t, ts.URL+"/v1/runs/"+cst.ID+"/progress").Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("finished run streamed no snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.PointsDone != 4 || last.PointsTotal != 4 {
		t.Fatalf("final snapshot points = %d/%d, want 4/4", last.PointsDone, last.PointsTotal)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}

// TestSubmitErrors pins the structured 400/404/405/413 surface.
func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512}, nil)

	type errBody struct {
		Error struct {
			Message string `json:"message"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Field   string `json:"field"`
		} `json:"error"`
	}
	decode := func(resp *http.Response) errBody {
		var e errBody
		if err := json.Unmarshal(readAll(t, resp), &e); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Syntax error: position reported structurally.
	resp := post(t, ts, []byte("{\"version\": 1,\n  \"name\": oops"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("syntax error status %d", resp.StatusCode)
	}
	if e := decode(resp); e.Error.Line != 2 || e.Error.Column == 0 {
		t.Fatalf("syntax error position = %d:%d, want line 2", e.Error.Line, e.Error.Column)
	}

	// Unknown field: caught, positioned.
	resp = post(t, ts, []byte(`{"version": 1, "name": "x", "turbo": true}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status %d", resp.StatusCode)
	}
	if e := decode(resp); !strings.Contains(e.Error.Message, "unknown field") || e.Error.Line != 1 || e.Error.Column != 29 {
		t.Fatalf("unknown-field error = %+v", e.Error)
	}

	// Semantic error: the offending JSON path named.
	resp = post(t, ts, []byte(`{"version": 1, "name": "x", "fabric": {"topology": "moebius"}, "workload": {"kind": "packet"}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("field error status %d", resp.StatusCode)
	}
	if e := decode(resp); e.Error.Field != "fabric.topology" {
		t.Fatalf("field error names %q, want fabric.topology", e.Error.Field)
	}

	// Oversized document: 413, not an opaque connection error.
	resp = post(t, ts, bytes.Repeat([]byte("x"), 1024))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
	readAll(t, resp)

	// Unknown run id: 404 on all three run endpoints.
	for _, path := range []string{"/v1/runs/rdeadbeef", "/v1/runs/rdeadbeef/result", "/v1/runs/rdeadbeef/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		readAll(t, resp)
	}

	// Method errors come from the mux method patterns.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/runs: status %d, want 405", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestCacheEviction bounds the store: oldest finished runs go first,
// an evicted run 404s, and resubmitting it re-runs from scratch.
func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 2}, nil)
	ids := make([]string, 3)
	for i := range ids {
		st := decodeStatus(t, post(t, ts, testScenarioBytes(t, int64(100+i))))
		ids[i] = st.ID
		waitState(t, ts, st.ID, stateDone)
	}
	// The third submission evicted the oldest finished run.
	resp, err := http.Get(ts.URL + "/v1/runs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted run status %d, want 404", resp.StatusCode)
	}
	readAll(t, resp)
	if ev := s.evicted.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}

	// Resubmission of the evicted content is a fresh (cache-miss) run.
	resp = post(t, ts, testScenarioBytes(t, 100))
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("evicted resubmission: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	st := decodeStatus(t, resp)
	waitState(t, ts, st.ID, stateDone)
}

// TestMetricsEndpoint checks the Prometheus surface carries the
// service counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 55)))
	waitState(t, ts, st.ID, stateDone)
	readAll(t, post(t, ts, testScenarioBytes(t, 55))) // one cache hit

	body := string(readAll(t, mustGet(t, ts.URL+"/metrics")))
	for _, line := range []string{
		"noc_server_runs_submitted_total 1",
		"noc_server_cache_hits_total 1",
		"noc_server_runs_completed_total 1",
		"noc_server_queue_depth 0",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q:\n%s", line, body)
		}
	}
}
