package server

// The digest path: a byte-identical resubmission of the body that
// created a run finds that run by the body's sha256, before decoding.
// These tests pin that it gives exactly the fingerprint path's answers,
// that it never answers from a run that is no longer a result, and
// that its index never outgrows the run store.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
)

// checkDigestIndex fails unless every digest entry names a stored run
// created by a body with that digest, so the index holds at most one
// entry per run.
func checkDigestIndex(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.digests) > len(s.runs) {
		t.Fatalf("digest index holds %d entries for %d runs", len(s.digests), len(s.runs))
	}
	for d, id := range s.digests {
		if r, ok := s.runs[id]; !ok || r.digest != d {
			t.Fatalf("digest entry for run %s outlived its run", id)
		}
	}
}

// TestByteIdenticalHitSkipsDecode: resubmitting the exact bytes of a
// finished run's document through the handler allocates fewer objects,
// the httptest recorder and request included, than scenario.Load alone
// allocates for that document, so the hit cannot be decoding it. The
// document is the cpu-dma-display built-in at measure 1000, the one the
// server-mix benchmark's misses submit.
func TestByteIdenticalHitSkipsDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sc, ok := scenario.Get("cpu-dma-display")
	if !ok {
		t.Fatal("built-in cpu-dma-display missing")
	}
	sc.Seed, sc.Measure.Measure = 3, 1000
	doc, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	h := s.Handler()
	submit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(doc)))
		return rec
	}

	rec := submit()
	if rec.Code != http.StatusAccepted || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first submission: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
	var st statusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	r := s.lookup(st.ID)
	<-r.doneCh
	if r.currentState() != stateDone {
		t.Fatalf("run ended %q: %s", r.currentState(), r.errorMessage())
	}
	rec = submit()
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), r.resultBytes()) {
		t.Fatalf("resubmission: status %d, X-Cache %q, %d bytes", rec.Code, rec.Header().Get("X-Cache"), rec.Body.Len())
	}

	hit := testing.AllocsPerRun(100, func() { submit() })
	load := testing.AllocsPerRun(100, func() {
		if _, err := scenario.Load(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte document: hit %.0f allocs, scenario.Load alone %.0f", len(doc), hit, load)
	if hit >= load {
		t.Fatalf("a byte-identical hit allocates %.0f objects, scenario.Load alone %.0f: the hit decodes", hit, load)
	}
}

// TestReserializedCopyHits: a re-serialized copy of a finished run's
// document (different bytes, same fingerprint) is a hit with the
// stored bytes through the fingerprint, adds no digest entry, and the
// original bytes still hit afterwards.
func TestReserializedCopyHits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	body := testScenarioBytes(t, 71)
	st := decodeStatus(t, post(t, ts, body))
	waitState(t, ts, st.ID, stateDone)
	first := readAll(t, mustGet(t, ts.URL+"/v1/runs/"+st.ID+"/result"))

	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), body) {
		t.Fatal("re-serialized copy has the original bytes")
	}
	for _, b := range [][]byte{compact.Bytes(), body} {
		resp := post(t, ts, b)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%d-byte resubmission: status %d, X-Cache %q", len(b), resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if got := readAll(t, resp); !bytes.Equal(got, first) {
			t.Fatalf("%d-byte resubmission is not byte-identical to the result", len(b))
		}
	}
	checkDigestIndex(t, s)
	s.mu.Lock()
	n := len(s.digests)
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("digest index holds %d entries, want 1 (only the creating body)", n)
	}
	if hits := s.cacheHits.Value(); hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
}

// idLine is a stand-in result: the id of the run that executes sc.
func idLine(sc *scenario.Scenario) []byte {
	fp, err := sc.Fingerprint()
	if err != nil {
		panic(err)
	}
	return []byte(runID(fp) + "\n")
}

// TestDigestNeverAnswersADeadRun: once a digest's run failed, was
// evicted or was cancelled, resubmitting the same bytes takes the full
// path, a retry under the same id or a fresh miss, and the index never
// outgrows the store.
func TestDigestNeverAnswersADeadRun(t *testing.T) {
	t.Run("failed", func(t *testing.T) {
		var failNext atomic.Bool
		failNext.Store(true)
		exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
			if failNext.Swap(false) {
				return nil, errors.New("injected failure")
			}
			return idLine(sc), nil
		}
		s, ts := newTestServer(t, Config{Workers: 1}, exec)
		body := testScenarioBytes(t, 91)
		st := decodeStatus(t, post(t, ts, body))
		if d := waitTerminal(t, ts, st.ID); runState(d.State) != stateFailed {
			t.Fatalf("run ended %q, want failed", d.State)
		}
		checkDigestIndex(t, s)
		resp := post(t, ts, body)
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("resubmission of a failed run: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if d := decodeStatus(t, resp); d.ID != st.ID {
			t.Fatalf("retry got id %s, want %s", d.ID, st.ID)
		}
		waitState(t, ts, st.ID, stateDone)
		checkDigestIndex(t, s)
		resp = post(t, ts, body)
		if got := readAll(t, resp); resp.StatusCode != http.StatusOK || string(got) != st.ID+"\n" {
			t.Fatalf("resubmission after the retry: status %d, body %q", resp.StatusCode, got)
		}
	})

	t.Run("evicted", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2}, nil)
		ids := make([]string, 3)
		for i := range ids {
			st := decodeStatus(t, post(t, ts, testScenarioBytes(t, int64(92+i))))
			ids[i] = st.ID
			waitState(t, ts, st.ID, stateDone)
			checkDigestIndex(t, s)
		}
		if s.lookup(ids[0]) != nil {
			t.Fatalf("run %s was not evicted", ids[0])
		}
		resp := post(t, ts, testScenarioBytes(t, 92))
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("resubmission of an evicted run: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if d := decodeStatus(t, resp); d.ID != ids[0] {
			t.Fatalf("resubmission got id %s, want %s", d.ID, ids[0])
		}
		waitState(t, ts, ids[0], stateDone)
		checkDigestIndex(t, s)
	})

	t.Run("cancelled", func(t *testing.T) {
		release := make(chan struct{})
		exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
			<-release
			return idLine(sc), nil
		}
		s, ts := newTestServer(t, Config{Workers: 1}, exec)
		t.Cleanup(func() { close(release) })
		stA := decodeStatus(t, post(t, ts, testScenarioBytes(t, 95)))
		waitState(t, ts, stA.ID, stateRunning)
		body := testScenarioBytes(t, 96)
		stB := decodeStatus(t, post(t, ts, body))
		if !s.lookup(stB.ID).cancel("injected cancellation") {
			t.Fatal("queued run could not be cancelled")
		}
		resp := post(t, ts, body)
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("resubmission of a cancelled run: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if d := decodeStatus(t, resp); d.ID != stB.ID || runState(d.State) != stateQueued {
			t.Fatalf("retry: id %s state %q, want a queued %s", d.ID, d.State, stB.ID)
		}
		checkDigestIndex(t, s)
	})
}

// TestByteIdenticalPendingAndDrain: the exact bytes of a queued or a
// running run get 202, X-Cache: pending and the run's Location; once
// the server drains, the exact bytes of a running or a finished run
// get 503.
func TestByteIdenticalPendingAndDrain(t *testing.T) {
	const blockSeed = 82
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		if sc.Seed == blockSeed {
			<-release
		}
		return idLine(sc), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, exec)
	t.Cleanup(unblock)

	done := testScenarioBytes(t, 81)
	stDone := decodeStatus(t, post(t, ts, done))
	waitState(t, ts, stDone.ID, stateDone)
	running := testScenarioBytes(t, blockSeed)
	stRunning := decodeStatus(t, post(t, ts, running))
	waitState(t, ts, stRunning.ID, stateRunning)
	queued := testScenarioBytes(t, 83)
	stQueued := decodeStatus(t, post(t, ts, queued))

	for _, c := range []struct {
		body []byte
		id   string
	}{{running, stRunning.ID}, {queued, stQueued.ID}} {
		resp := post(t, ts, c.body)
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "pending" {
			t.Fatalf("resubmission of %s: status %d, X-Cache %q", c.id, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if loc := resp.Header.Get("Location"); loc != "/v1/runs/"+c.id {
			t.Fatalf("resubmission of %s: Location %q", c.id, loc)
		}
		if d := decodeStatus(t, resp); d.ID != c.id {
			t.Fatalf("resubmission of %s joined %s", c.id, d.ID)
		}
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitTerminal(t, ts, stQueued.ID) // cancelled: the drain has begun
	for _, body := range [][]byte{done, running} {
		resp := post(t, ts, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("resubmission while draining: status %d, want 503", resp.StatusCode)
		}
		readAll(t, resp)
	}
	unblock()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if hits, subs := s.cacheHits.Value(), s.submitted.Value(); hits != 0 || subs != 3 {
		t.Fatalf("cache hits %d, runs submitted %d; want 0 and 3", hits, subs)
	}
}
