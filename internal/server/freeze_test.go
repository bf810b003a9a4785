package server

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
)

// These tests pin what a finished run keeps: at its terminal transition
// it swaps its live metrics rig for the rig's last snapshot, rendered,
// and drops its scenario. CI runs them under -race.

// holdsNothingLive fails if the run still references a rig or a
// scenario, in any field.
func holdsNothingLive(t *testing.T, r *run) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Type() {
		case reflect.TypeOf((*metrics.Rig)(nil)), reflect.TypeOf((*scenario.Scenario)(nil)):
			if !f.IsNil() {
				t.Errorf("%s run still holds its %s in field %s", r.state, f.Type(), v.Type().Field(i).Name)
			}
		}
	}
	if len(r.final.Line) == 0 {
		t.Errorf("%s run kept no terminal line", r.state)
	}
}

// TestFinishedRunsHoldNoRig: a done, a failed and a cancelled run each
// hold no rig and no scenario.
func TestFinishedRunsHoldNoRig(t *testing.T) {
	const failSeed, blockSeed = 102, 103
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		switch sc.Seed {
		case failSeed:
			return nil, errors.New("injected failure")
		case blockSeed:
			<-release
		}
		return []byte("{}\n"), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, exec)

	done := decodeStatus(t, post(t, ts, testScenarioBytes(t, 101)))
	waitState(t, ts, done.ID, stateDone)
	failed := decodeStatus(t, post(t, ts, testScenarioBytes(t, failSeed)))
	waitState(t, ts, failed.ID, stateFailed)
	blocker := decodeStatus(t, post(t, ts, testScenarioBytes(t, blockSeed)))
	waitState(t, ts, blocker.ID, stateRunning)
	queued := decodeStatus(t, post(t, ts, testScenarioBytes(t, 104)))
	if !s.lookup(queued.ID).cancel("injected cancellation") {
		t.Fatal("queued run could not be cancelled")
	}
	close(release)
	waitState(t, ts, blocker.ID, stateDone)

	for _, id := range []string{done.ID, failed.ID, queued.ID, blocker.ID} {
		holdsNothingLive(t, s.lookup(id))
	}
	if st := decodeStatus(t, mustGet(t, ts.URL+"/v1/runs/"+queued.ID)); st.State != string(stateCancelled) || st.Scenario != "server-test" {
		t.Fatalf("cancelled run's status: state %q, scenario %q", st.State, st.Scenario)
	}
}

// progressLine reads a finished run's progress stream, which must be
// exactly one line.
func progressLine(t *testing.T, ts string, id string) metrics.Snapshot {
	t.Helper()
	snaps, err := metrics.ParseSnapshots(mustGet(t, ts+"/v1/runs/"+id+"/progress").Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("finished run streamed %d lines, want its one terminal line", len(snaps))
	}
	return snaps[0]
}

// wallClock names the samples that read the wall clock at dump time.
var wallClock = map[string]bool{
	"noc_sim_wall_seconds":   true,
	"noc_sim_cycles_per_sec": true,
}

// TestFinishedProgressIsFrozen: a finished run's progress line carries
// the phase, counts, points and metrics its rig reported when the run
// finished, and reads the same however long after; so does its status.
func TestFinishedProgressIsFrozen(t *testing.T) {
	var atExit map[string]float64
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		rig.Profile.SetPhase(metrics.PhaseDone)
		rig.Profile.Advance(640)
		rig.Progress.SetTotal(2)
		rig.Progress.PointStart()
		rig.Progress.PointDone("p@1", 3)
		rig.Progress.PointStart()
		rig.Progress.PointDone("p@2", 4)
		atExit = dump(rig.Registry)
		return []byte("{}\n"), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1}, exec)
	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 111)))
	waitState(t, ts, st.ID, stateDone)

	first := progressLine(t, ts.URL, st.ID)
	if first.Phase != "done" || first.Cycles != 640 ||
		first.PointsDone != 2 || first.PointsTotal != 2 {
		t.Fatalf("terminal line = %+v", first)
	}
	if len(first.Metrics) != len(atExit) {
		t.Fatalf("terminal line has %d metrics, the rig reported %d", len(first.Metrics), len(atExit))
	}
	for k, v := range atExit {
		got, ok := first.Metrics[k]
		switch {
		case !ok:
			t.Errorf("terminal line lacks %s", k)
		case wallClock[k]:
			// Read again at the transition, just after the hook's dump.
		case got != v:
			t.Errorf("%s = %g, the rig reported %g", k, got, v)
		}
	}

	if w := first.Metrics["noc_sim_wall_seconds"]; w < atExit["noc_sim_wall_seconds"] {
		t.Errorf("frozen wall time %g s precedes the hook's %g s", w, atExit["noc_sim_wall_seconds"])
	}

	time.Sleep(50 * time.Millisecond)
	second := progressLine(t, ts.URL, st.ID)
	if !reflect.DeepEqual(first.Metrics, second.Metrics) {
		t.Fatalf("metrics moved between two reads 50 ms apart: wall %g s, then %g s",
			first.Metrics["noc_sim_wall_seconds"], second.Metrics["noc_sim_wall_seconds"])
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("terminal line moved:\n%+v\n%+v", first, second)
	}
	if d := decodeStatus(t, mustGet(t, ts.URL+"/v1/runs/"+st.ID)); d.PointsDone != 2 || d.PointsTotal != 2 {
		t.Fatalf("status points = %d/%d, want 2/2", d.PointsDone, d.PointsTotal)
	}
}

func dump(reg *metrics.Registry) map[string]float64 {
	m := map[string]float64{}
	reg.Each(func(k string, v float64) { m[k] = v })
	return m
}

// TestTimedOutRunStopsMoving: the simulation of a run past its timeout
// keeps running in the background on its own rig, and what /progress
// and the status show no longer follows it.
func TestTimedOutRunStopsMoving(t *testing.T) {
	release := make(chan struct{})
	finished := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		defer close(finished)
		rig.Progress.SetTotal(4)
		rig.Profile.Advance(100)
		<-release
		rig.Profile.SetPhase(metrics.PhaseDone)
		rig.Profile.Advance(900)
		rig.Progress.PointStart()
		rig.Progress.PointDone("late", 1)
		return []byte("late result that must be dropped"), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, RunTimeout: 30 * time.Millisecond}, exec)
	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 121)))
	waitState(t, ts, st.ID, stateFailed)

	before := progressLine(t, ts.URL, st.ID)
	close(release)
	<-finished
	after := progressLine(t, ts.URL, st.ID)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("timed-out run's line moved with its background goroutine:\n%+v\n%+v", before, after)
	}
	if after.Cycles != 100 || after.Phase == "done" {
		t.Fatalf("timed-out run reports %d cycles in phase %q, want its 100 at the timeout", after.Cycles, after.Phase)
	}
	if d := decodeStatus(t, mustGet(t, ts.URL+"/v1/runs/"+st.ID)); d.PointsDone != 0 || d.PointsTotal != 4 {
		t.Fatalf("timed-out run's status points = %d/%d, want 0/4", d.PointsDone, d.PointsTotal)
	}
}

// streamEnd reads a progress stream to its end and returns its last
// line and how many lines it had; atFirst, when not nil, runs once the
// first line has arrived.
func streamEnd(t *testing.T, url string, atFirst func()) (metrics.Snapshot, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		t.Fatalf("stream ended before its first line: %v", sc.Err())
	}
	if atFirst != nil {
		atFirst()
	}
	last := append([]byte(nil), sc.Bytes()...)
	lines := 1
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	snaps, err := metrics.ParseSnapshots(bytes.NewReader(last))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("last of %d lines does not parse: %v\n%s", lines, err, last)
	}
	return snaps[0], lines
}

// TestStreamOpenedWhileRunningEndsTerminal: a progress stream opened
// while the run executes keeps the rig it started on and ends with the
// finished state, the counts the frozen line reports.
func TestStreamOpenedWhileRunningEndsTerminal(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		rig.Progress.SetTotal(1)
		rig.Profile.SetPhase(metrics.PhaseMeasure)
		rig.Profile.Advance(10)
		close(started)
		<-release
		rig.Profile.Advance(90)
		rig.Progress.PointStart()
		rig.Progress.PointDone("p", 1)
		rig.Profile.SetPhase(metrics.PhaseDone)
		return []byte("{}\n"), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1}, exec)
	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 131)))
	<-started

	end, _ := streamEnd(t, ts.URL+"/v1/runs/"+st.ID+"/progress?interval=10ms", func() { close(release) })
	frozen := progressLine(t, ts.URL, st.ID)
	if end.Phase != "done" || end.Cycles != 100 || end.PointsDone != 1 || end.PointsTotal != 1 {
		t.Fatalf("stream ended on %+v, want the finished state", end)
	}
	if end.Phase != frozen.Phase || end.Cycles != frozen.Cycles ||
		end.PointsDone != frozen.PointsDone || end.PointsTotal != frozen.PointsTotal {
		t.Fatalf("stream ended on %+v, the frozen line reads %+v", end, frozen)
	}
}

// TestRunFinishingMidLineStreamEndsTerminal: a run that finishes while
// its stream renders a line, after the line has read the phase and the
// counts, still ends the stream on the finished state. A gauge the run
// registers lets the run finish on the stream's second read of it and
// holds that line until the run's terminal transition is over; Freeze
// reads it once more inside the transition, and later reads pass.
func TestRunFinishingMidLineStreamEndsTerminal(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan (<-chan struct{}), 1)
	var reads atomic.Int32
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		rig.Progress.SetTotal(1)
		rig.Profile.SetPhase(metrics.PhaseMeasure)
		rig.Profile.Advance(10)
		rig.Registry.GaugeFunc("test_gate", "", func() float64 {
			if reads.Add(1) == 2 {
				close(release)
				done := <-finished
				<-done
			}
			return 0
		})
		close(started)
		<-release
		rig.Profile.Advance(90)
		rig.Progress.PointStart()
		rig.Progress.PointDone("p", 1)
		rig.Profile.SetPhase(metrics.PhaseDone)
		return []byte("{}\n"), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, exec)
	st := decodeStatus(t, post(t, ts, testScenarioBytes(t, 141)))
	finished <- s.lookup(st.ID).doneCh
	<-started

	end, lines := streamEnd(t, ts.URL+"/v1/runs/"+st.ID+"/progress?interval=10ms", nil)
	if end.Phase != "done" || end.Cycles != 100 || end.PointsDone != 1 || end.PointsTotal != 1 {
		t.Fatalf("stream of %d lines ended on phase %s at %d cycles, want done at 100", lines, end.Phase, end.Cycles)
	}
}

// TestQueuedRunClockStartsAtClaim: a run's session clock starts when a
// worker claims it. With one worker, a run held about 300 ms behind a
// blocked run freezes with the t_ms of its own execution, far below
// the wait (301 when the clock started at submission); a progress
// stream opened on it while it is queued writes its first line once
// the run has started. A stream opened on a run cancelled while queued
// is its one terminal line: idle, at 0 cycles.
func TestQueuedRunClockStartsAtClaim(t *testing.T) {
	const blockSeed, queuedSeed, cancelSeed = 151, 152, 153
	const wait = 300 * time.Millisecond
	release := make(chan struct{})
	exec := func(sc *scenario.Scenario, rig *metrics.Rig) ([]byte, error) {
		switch sc.Seed {
		case blockSeed:
			<-release
		case queuedSeed:
			rig.Profile.Advance(1000)
		}
		return []byte("{}\n"), nil
	}
	s, ts := newTestServer(t, Config{Workers: 1}, exec)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before the server's shutdown, should the test fail early
	blocker := decodeStatus(t, post(t, ts, testScenarioBytes(t, blockSeed)))
	waitState(t, ts, blocker.ID, stateRunning)
	queued := decodeStatus(t, post(t, ts, testScenarioBytes(t, queuedSeed)))
	cancelled := decodeStatus(t, post(t, ts, testScenarioBytes(t, cancelSeed)))

	// A stream on a queued run sends its headers and waits for the run
	// to start; the cancellation ends it with the terminal line.
	resp, err := http.Get(ts.URL + "/v1/runs/" + cancelled.ID + "/progress?interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if !s.lookup(cancelled.ID).cancel("injected cancellation") {
		t.Fatal("queued run could not be cancelled")
	}
	snaps, err := metrics.ParseSnapshots(resp.Body)
	resp.Body.Close()
	if err != nil || len(snaps) != 1 || snaps[0].Phase != "idle" || snaps[0].Cycles != 0 {
		t.Fatalf("stream of the run cancelled while queued: %+v (%v), want one idle line at 0 cycles", snaps, err)
	}

	var releasedAt atomic.Int64
	go func() {
		time.Sleep(wait)
		releasedAt.Store(time.Now().UnixNano())
		unblock()
	}()
	var firstAt time.Time
	end, _ := streamEnd(t, ts.URL+"/v1/runs/"+queued.ID+"/progress?interval=10ms", func() { firstAt = time.Now() })
	if firstAt.UnixNano() < releasedAt.Load() || releasedAt.Load() == 0 {
		t.Fatal("the stream on the queued run wrote a line before the run started")
	}
	frozen := progressLine(t, ts.URL, queued.ID)
	if end.Cycles != 1000 || frozen.Cycles != 1000 {
		t.Fatalf("stream ended at %d cycles and froze at %d, want 1000", end.Cycles, frozen.Cycles)
	}
	if limit := float64(wait.Milliseconds()) / 3; frozen.TMS > limit || end.TMS > limit {
		t.Fatalf("t_ms %.1f (stream %.1f) after %v in the queue, want below %.0f: the clock counts the queue wait",
			frozen.TMS, end.TMS, wait, limit)
	}
}
