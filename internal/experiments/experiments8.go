package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

// E15 turns the observability stack on itself: the hotspot-dram
// built-in (the E12/E13 saturation workload) is swept twice — once
// bare, once with the full internal/obs/metrics stack attached
// (registry, fabric collector, simulator self-profile, progress
// tracker, and a JSONL snapshotter ticking every couple of
// milliseconds) — and the two sweeps must be byte-identical. That is
// the subsystem's contract made into an experiment: live metrics are
// a pure observer, so the cycles/sec trajectory, per-phase wall
// clock, and per-router counters it produces describe the same run
// the paper-style tables report, not a perturbed sibling of it.

// E15Result carries the instrumented sweep, the parsed snapshot
// trajectory, and the invariant checks alongside the printed tables.
type E15Result struct {
	Tables    []*stats.Table
	Sweep     traffic.SweepResult
	Snapshots []metrics.Snapshot
	LiveFlits uint64 // registry per-router flit total after the sweep
	Identical bool   // instrumented results == bare results, byte for byte
}

// e15SnapRows caps the printed trajectory; the full stream stays in
// E15Result.Snapshots (and in CI's BENCH_metrics_e15.json artifact).
const e15SnapRows = 20

// E15SelfProfile sweeps hotspot-dram with live metrics attached and
// digests the self-profiling stream.
func E15SelfProfile(seed int64) E15Result {
	sc, ok := scenario.Get("hotspot-dram")
	if !ok {
		panic("experiments: built-in scenario hotspot-dram missing")
	}
	sc.Seed = seed
	bare, err := scenario.Execute(sc, scenario.Options{})
	if err != nil {
		panic("experiments: hotspot-dram did not run: " + err.Error())
	}

	// The full stack, wired as the CLIs and nocserver wire it: a rig
	// (registry, per-router collector, self-profile, progress tracker)
	// streaming its JSONL snapshots into memory.
	rig := metrics.NewRig()
	var stream bytes.Buffer
	snap := rig.SnapshotTo(&stream, 2*time.Millisecond)
	rep, err := scenario.Execute(sc, scenario.Options{Metrics: rig, Wall: true})
	if err != nil {
		panic("experiments: instrumented hotspot-dram did not run: " + err.Error())
	}
	sr := *rep.Sweep
	if err := snap.Close(); err != nil {
		panic("experiments: snapshot stream: " + err.Error())
	}
	snaps, err := metrics.ParseSnapshots(bytes.NewReader(stream.Bytes()))
	if err != nil {
		panic("experiments: snapshot stream did not parse back: " + err.Error())
	}

	res := E15Result{Sweep: sr, Snapshots: snaps}

	// Invariant 1: strip the (deliberately wall-clock) Wall blocks and
	// the instrumented sweep must serialize identically to the bare one.
	norm := sr
	norm.Points = append([]traffic.Result(nil), sr.Points...)
	for i := range norm.Points {
		norm.Points[i].Wall = nil
	}
	a, _ := json.Marshal(bare.Sweep)
	b, _ := json.Marshal(norm)
	res.Identical = bytes.Equal(a, b)

	// Invariant 2: the live per-router flit counters conserve flits —
	// their sum is exactly the sum the deterministic results report.
	var resultFlits uint64
	for _, p := range sr.Points {
		resultFlits += p.FabricFlits
	}
	var liveFlits float64
	rig.Registry.Each(func(key string, v float64) {
		if strings.HasPrefix(key, "noc_fabric_flits_total") {
			liveFlits += v
		}
	})
	res.LiveFlits = uint64(liveFlits)

	// Table 1: the sweep with its self-profile — what the run cost in
	// wall clock, phase by phase, next to what it measured.
	pt := stats.NewTable(
		fmt.Sprintf("E15 — self-profiled hotspot-dram sweep (seed %d): wall clock and event rate per point", seed),
		"offered", "p99 lat", "saturated", "kernel events", "wall ms", "warm/meas/drain ms", "Mevents/s", "backpressure")
	for _, p := range sr.Points {
		w := p.Wall
		pt.AddRow(p.Offered, p.Latency.P99, stats.Mark(p.Saturated),
			w.Events, fmt.Sprintf("%.1f", w.TotalMS),
			fmt.Sprintf("%.1f/%.1f/%.1f", w.WarmupMS, w.MeasureMS, w.DrainMS),
			fmt.Sprintf("%.2f", w.EventsPerSec/1e6), p.InjectBackpressure)
	}
	res.Tables = append(res.Tables, pt)

	// Table 2: the snapshot trajectory — the stream a -metrics-out run
	// writes, sampled down to a screenful.
	st := stats.NewTable(
		fmt.Sprintf("E15 — live snapshot trajectory (%d lines, showing <= %d): what /metrics scrapers see", len(snaps), e15SnapRows),
		"t ms", "phase", "cycles", "Mcycles/s", "heap MB", "points")
	stride := 1
	if len(snaps) > e15SnapRows {
		stride = (len(snaps) + e15SnapRows - 1) / e15SnapRows
	}
	for i := 0; i < len(snaps); i += stride {
		s := snaps[i]
		st.AddRow(fmt.Sprintf("%.1f", s.TMS), s.Phase, s.Cycles,
			fmt.Sprintf("%.2f", s.CyclesPerSec/1e6),
			fmt.Sprintf("%.1f", s.HeapAllocBytes/1e6),
			fmt.Sprintf("%d/%d", s.PointsDone, s.PointsTotal))
	}
	res.Tables = append(res.Tables, st)

	// Table 3: the invariants, stated as results.
	it := stats.NewTable("E15 — observer invariants",
		"check", "value", "ok")
	it.AddRow("instrumented sweep byte-identical to bare sweep", "", stats.Mark(res.Identical))
	it.AddRow("live flit total == summed point flit totals",
		fmt.Sprintf("%d == %d", res.LiveFlits, resultFlits), stats.Mark(res.LiveFlits == resultFlits))
	it.AddRow("final live cycles == summed point cycles",
		fmt.Sprintf("%d", rig.Profile.Cycles()), stats.Mark(rig.Profile.Cycles() == sumCycles(sr.Points)))
	it.AddRow("snapshot stream parses back", fmt.Sprintf("%d lines", len(snaps)),
		stats.Mark(len(snaps) > 0 && snaps[len(snaps)-1].Phase == "done"))
	res.Tables = append(res.Tables, it)
	return res
}

func sumCycles(points []traffic.Result) int64 {
	var n int64
	for _, p := range points {
		n += p.Cycles
	}
	return n
}
