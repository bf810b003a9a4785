package metrics

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
)

// TestFabricCollectorCounts drives the collector with a synthetic
// event stream and checks every counter family it owns.
func TestFabricCollectorCounts(t *testing.T) {
	r := NewRegistry()
	c := NewFabricCollector(r)
	c.NameRouters([]string{"r0.0", "r1.0"})
	ev := func(k obs.Kind, router int, src noctypes.NodeID) {
		c.Event(obs.Event{Kind: k, Router: router, Src: src})
	}
	for i := 0; i < 5; i++ {
		ev(obs.KindFlit, 0, 0)
	}
	ev(obs.KindFlit, 3, 0) // unnamed router appears mid-run
	ev(obs.KindStall, 1, 0)
	ev(obs.KindQueued, 0, 0)
	ev(obs.KindInject, 0, 0)
	ev(obs.KindEject, 0, 0)
	ev(obs.KindTxnIssue, 0, 7)
	ev(obs.KindTxnIssue, 0, 7)
	ev(obs.KindTxnComplete, 0, 7)
	ev(obs.KindSlaveRecv, 0, 9)
	ev(obs.KindSlaveResp, 0, 9)

	want := map[string]float64{
		`noc_fabric_flits_total{router="r0.0"}`:   5,
		`noc_fabric_flits_total{router="r1.0"}`:   0,
		`noc_fabric_flits_total{router="r3"}`:     1,
		`noc_fabric_stalls_total{router="r1.0"}`:  1,
		`noc_fabric_pkts_queued_total`:            1,
		`noc_fabric_pkts_injected_total`:          1,
		`noc_fabric_pkts_ejected_total`:           1,
		`noc_niu_txn_issued_total{node="7"}`:      2,
		`noc_niu_txn_completed_total{node="7"}`:   1,
		`noc_niu_txn_outstanding{node="7"}`:       1,
		`noc_niu_slave_admitted_total{node="9"}`:  1,
		`noc_niu_slave_responded_total{node="9"}`: 1,
	}
	got := map[string]float64{}
	r.Each(func(k string, v float64) { got[k] = v })
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if c.routerName(2) != "r2" {
		t.Errorf("fallback router name = %q", c.routerName(2))
	}

	var disabled *FabricCollector
	disabled.NameRouters([]string{"x"}) // must not panic
}

// TestSimProfileAndSnapshotter runs the publish loop by hand and
// checks the JSONL stream round-trips with sane interval rates.
func TestSimProfileAndSnapshotter(t *testing.T) {
	r := NewRegistry()
	p := NewSimProfile(r)
	var buf bytes.Buffer
	s := NewSnapshotter(&buf, time.Nanosecond, r, p, NewProgress(r))
	p.SetSnapshotter(s)

	p.SetPhase(PhaseWarmup)
	p.Advance(64)
	p.SetPhase(PhaseMeasure)
	time.Sleep(2 * time.Millisecond) // let the interval elapse
	p.Advance(64)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if p.Cycles() != 128 {
		t.Fatalf("profile total = %d cycles", p.Cycles())
	}
	if p.Phase() != PhaseMeasure {
		t.Fatalf("phase = %v", p.Phase())
	}
	snaps, err := ParseSnapshots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshot lines", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Cycles != 128 {
		t.Fatalf("final snapshot = %d cycles", last.Cycles)
	}
	if last.Phase != "measure" {
		t.Fatalf("final phase = %q", last.Phase)
	}
	if last.Metrics["noc_sim_cycles_total"] != 128 {
		t.Fatalf("registry dump missing cycles total: %v", last.Metrics)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Cycles < snaps[i-1].Cycles || snaps[i].TMS < snaps[i-1].TMS {
			t.Fatalf("snapshots not monotonic at line %d", i)
		}
	}
}

// snapshotStream produces a Snapshotter-written JSONL stream of n+1
// lines (n explicit snaps plus the Close line) and returns its bytes.
func snapshotStream(t *testing.T, n int) []byte {
	t.Helper()
	r := NewRegistry()
	p := NewSimProfile(r)
	var buf bytes.Buffer
	s := NewSnapshotter(&buf, time.Hour, r, p, NewProgress(r))
	for i := 0; i < n; i++ {
		p.SetPhase(PhaseMeasure)
		p.Advance(64)
		s.Snap()
	}
	p.SetPhase(PhaseDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseSnapshotsTruncatedTail pins the live-tail contract the
// nocserver progress endpoint depends on: a stream whose producer died
// (or is still writing) mid-line yields every complete line plus an
// error, not nothing.
func TestParseSnapshotsTruncatedTail(t *testing.T) {
	stream := snapshotStream(t, 3)
	if stream[len(stream)-1] != '\n' {
		t.Fatal("stream does not end in a newline")
	}
	whole, err := ParseSnapshots(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 4 {
		t.Fatalf("complete stream parsed to %d lines, want 4", len(whole))
	}

	// Cut the final line in half: everything before it must survive.
	cut := bytes.LastIndexByte(stream[:len(stream)-1], '\n') + 1 + 10
	part, err := ParseSnapshots(bytes.NewReader(stream[:cut]))
	if err == nil {
		t.Fatal("truncated tail parsed without error")
	}
	if len(part) != 3 {
		t.Fatalf("truncated stream yielded %d lines, want the 3 complete ones", len(part))
	}
	for i := range part {
		if part[i].Cycles != whole[i].Cycles {
			t.Fatalf("prefix line %d differs from the complete parse", i)
		}
	}
}

// TestParseSnapshotsInterleaved covers the shapes a snapshot file
// picks up outside the clean single-writer case: blank lines between
// records and two sessions' streams concatenated into one file.
func TestParseSnapshotsInterleaved(t *testing.T) {
	a := snapshotStream(t, 2)
	b := snapshotStream(t, 1)
	var joined bytes.Buffer
	joined.Write(a)
	joined.WriteString("\n\n") // blank separator lines are skipped
	joined.Write(b)

	snaps, err := ParseSnapshots(&joined)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 2; len(snaps) != want {
		t.Fatalf("concatenated streams parsed to %d lines, want %d", len(snaps), want)
	}
	// The second session restarts its clocks: totals drop at the seam,
	// which is exactly how a reader detects the boundary.
	if snaps[3].Cycles > snaps[2].Cycles {
		t.Fatalf("expected the second stream to restart cycle totals (%d then %d)",
			snaps[2].Cycles, snaps[3].Cycles)
	}
	// A line of non-JSON garbage mid-stream: prefix plus error.
	garbled := append(append([]byte{}, a...), []byte("not json\n")...)
	garbled = append(garbled, b...)
	snaps, err = ParseSnapshots(bytes.NewReader(garbled))
	if err == nil {
		t.Fatal("garbage line parsed without error")
	}
	if len(snaps) != 3 {
		t.Fatalf("garbled stream yielded %d lines, want the 3 before the garbage", len(snaps))
	}
}

// TestProgressETA pins the extrapolation: half the points done means
// the ETA is about the elapsed time again.
func TestProgressETA(t *testing.T) {
	r := NewRegistry()
	p := NewProgress(r)
	p.SetTotal(4)
	for i := 0; i < 2; i++ {
		p.PointStart()
		p.PointDone("mesh/uniform@0.05", 5)
	}
	time.Sleep(2 * time.Millisecond)
	s := p.Snapshot()
	if s.PointsTotal != 4 || s.PointsDone != 2 || s.WorkersBusy != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.LastPoint != "mesh/uniform@0.05" {
		t.Fatalf("last point = %q", s.LastPoint)
	}
	if s.EtaSec <= 0 || s.EtaSec > 100*s.ElapsedSec {
		t.Fatalf("eta = %g (elapsed %g)", s.EtaSec, s.ElapsedSec)
	}
	if p.wall.Count() != 2 {
		t.Fatalf("wall histogram count = %d", p.wall.Count())
	}
}

// TestRig: a nil rig, a zero rig and a rig with no collector attach no
// probe (a true nil interface, so obs.Multi drops it), and a built
// rig's snapshot stream is paced by its own profile.
func TestRig(t *testing.T) {
	var off *Rig
	for _, r := range []*Rig{off, {}, {Profile: NewSimProfile(NewRegistry())}} {
		if p := r.Probe(); p != nil {
			t.Fatalf("rig %+v probe = %#v, want a nil interface", r, p)
		}
	}
	rig := NewRig()
	if rig.Probe() != rig.Collector || rig.Collector == nil {
		t.Fatal("rig probe is not its fabric collector")
	}
	var buf bytes.Buffer
	s := rig.SnapshotTo(&buf, time.Nanosecond)
	time.Sleep(time.Millisecond)
	rig.Profile.Advance(10)
	if s.Lines() == 0 {
		t.Fatal("profile publishing did not drive the rig's snapshotter")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSimProfileHeapGauges: a fresh profile's first Advance fills the
// three Go heap gauges from runtime/metrics, and another Advance inside
// memEvery leaves them alone.
func TestSimProfileHeapGauges(t *testing.T) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewSimProfile(NewRegistry())
	p.Advance(1)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if v := p.heapAlloc.Value(); v <= 0 {
		t.Fatalf("noc_go_heap_alloc_bytes = %v", v)
	}
	if v := p.heapObjects.Value(); v <= 0 {
		t.Fatalf("noc_go_heap_objects = %v", v)
	}
	if v := p.gcTotal.Value(); v < float64(before.NumGC) || v > float64(after.NumGC) {
		t.Fatalf("noc_go_gc_total = %v, MemStats.NumGC read %d before and %d after", v, before.NumGC, after.NumGC)
	}
	p.heapAlloc.Set(-1)
	p.Advance(1)
	if v := p.heapAlloc.Value(); v != -1 {
		t.Fatalf("a second Advance inside memEvery re-read the heap gauges (%v)", v)
	}
}

// TestSnapshotterMeasuresFromSessionStart: a stream opened in the
// middle of a session (nocserver's /progress on a running run) starts
// with the session's wall time and its average cycle rate, the line
// Rig.Freeze renders, not every cycle so far divided by the time since
// the stream opened. Later lines still report their own interval.
func TestSnapshotterMeasuresFromSessionStart(t *testing.T) {
	rig := NewRig()
	rig.Profile.Advance(20_000)
	time.Sleep(20 * time.Millisecond)
	var buf bytes.Buffer
	s := NewSnapshotter(&buf, time.Hour, rig.Registry, rig.Profile, rig.Progress)
	s.Snap()
	time.Sleep(time.Millisecond)
	s.Snap()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snaps, err := ParseSnapshots(&buf)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("%d lines, err %v", len(snaps), err)
	}
	first := snaps[0]
	if first.TMS < 20 {
		t.Fatalf("first line t_ms = %g, want the session's wall time (at least 20 ms)", first.TMS)
	}
	if avg := float64(first.Cycles) / (first.TMS / 1e3); math.Abs(first.CyclesPerSec-avg) > 0.01*avg {
		t.Errorf("first line cycle rate %g, want the session average %g", first.CyclesPerSec, avg)
	}
	if second := snaps[1]; second.CyclesPerSec != 0 || second.TMS <= first.TMS {
		t.Errorf("second line = %+v, want an idle interval after the first", second)
	}
}

// TestSimProfileRun pins the one loop every runner advances its clock
// through: at most n cycles in steps, the last one clipped, while more
// holds, checked before each step; afterwards the live cycle total is
// the cycles it ran. A nil profile runs the same cycles.
func TestSimProfileRun(t *testing.T) {
	for _, c := range []struct{ n, step, stopAt, want int64 }{
		{n: 100, step: 64, want: 100},
		{n: 128, step: 64, want: 128},
		{n: 0, step: 64, want: 0},
		{n: 1000, step: 64, stopAt: 130, want: 192},
		{n: 150, step: 64, stopAt: 140, want: 150},
	} {
		for _, on := range []bool{false, true} {
			var p *SimProfile
			if on {
				p = NewSimProfile(NewRegistry())
			}
			clk := sim.NewClock(sim.NewKernel(), "t", sim.Nanosecond, 0)
			var more func() bool
			if c.stopAt > 0 {
				more = func() bool { return clk.Cycle() < c.stopAt }
			}
			ran := p.Run(clk, c.n, c.step, more)
			if ran != c.want || clk.Cycle() != c.want {
				t.Errorf("%+v profile %v: ran %d, clock at %d, want %d", c, on, ran, clk.Cycle(), c.want)
			}
			if !on {
				continue
			}
			if p.Cycles() != ran {
				t.Errorf("%+v: published %d cycles, ran %d", c, p.Cycles(), ran)
			}
		}
	}
}
