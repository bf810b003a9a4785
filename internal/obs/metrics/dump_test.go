package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"testing"

	"time"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
)

// runShaped builds a registry the way a server run's rig fills it: the
// self-profile, the progress tracker with an observed point, and the
// fabric collector with per-router and per-NIU series.
func runShaped(t testing.TB) *Rig {
	t.Helper()
	rig := NewRig()
	names := make([]string, 12)
	for i := range names {
		names[i] = "sw" + strconv.Itoa(i)
	}
	rig.Collector.NameRouters(names)
	for i := 0; i < 64; i++ {
		rig.Collector.Event(obs.Event{Kind: obs.KindFlit, Router: i % len(names)})
		rig.Collector.Event(obs.Event{Kind: obs.KindTxnIssue, Src: noctypes.NodeID(i % 8)})
		rig.Collector.Event(obs.Event{Kind: obs.KindSlaveRecv, Src: noctypes.NodeID(8 + i%4)})
	}
	rig.Profile.SetPhase(PhaseMeasure)
	rig.Profile.Advance(1000)
	rig.Progress.SetTotal(1)
	rig.Progress.PointStart()
	rig.Progress.PointDone("p", 12)
	return rig
}

// TestEachAllocatesNothingPerSample: dumping a registry walks the
// sample list it keeps, with no closure, key or sort per call.
func TestEachAllocatesNothingPerSample(t *testing.T) {
	reg := runShaped(t).Registry
	n := 0
	reg.Each(func(string, float64) { n++ })
	if n < 60 {
		t.Fatalf("run-shaped registry dumps %d samples, want at least 60", n)
	}
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		reg.Each(func(_ string, v float64) { sum += v })
	})
	if allocs != 0 {
		t.Fatalf("Each over %d samples allocated %.1f objects per call, want 0", n, allocs)
	}
}

// TestLabelledRegistrationAllocs: registering a labelled counter costs
// its qualified key and its handle (the map and the sample list grow
// amortized), and finding it again costs nothing.
func TestLabelledRegistrationAllocs(t *testing.T) {
	const runs = 1000
	labels := make([][]Label, runs+1)
	for i := range labels {
		labels[i] = []Label{L("router", "r"+strconv.Itoa(i)), L("kind", "flit")}
	}
	reg := NewRegistry()
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		reg.Counter("noc_test_total", "help", labels[i]...)
		i++
	})
	if allocs > 2 {
		t.Fatalf("registering a labelled counter allocated %.0f objects, want at most 2", allocs)
	}
	again := testing.AllocsPerRun(runs, func() {
		reg.Counter("noc_test_total", "help", labels[7]...)
	})
	if again != 0 {
		t.Fatalf("finding a registered labelled counter allocated %.0f objects, want 0", again)
	}
}

// TestDumpJSONMatchesEncodingJSON: the rendered registry dump is the
// bytes json.Marshal writes for the map Each fills, for label values
// encoding/json escapes and for floats on both sides of its exponent
// cutoffs, and a snapshot line is the bytes of the Snapshot with its
// map filled. A value that is not finite is left out.
func TestDumpJSONMatchesEncodingJSON(t *testing.T) {
	reg := NewRegistry()
	for i, v := range []string{"plain", `q"uote`, `back\slash`, "new\nline", "tab\t", "ctl\x01\x1f",
		"<html>&amp;", "caf\u00e9", "bad\xffutf8", "ls\u2028ps\u2029", "\x7f"} {
		reg.Counter("c_total", "", L("v", v)).Add(uint64(i))
	}
	for i, f := range []float64{0, -0.5, 1e-7, 1e-6, 0.1, 123456789, 1e20, 1e21, -3e-9, 1.5e300} {
		reg.Gauge("g", "", L("i", strconv.Itoa(i))).Set(f)
	}
	reg.GaugeFunc("fn", "", func() float64 { return 2.5 })
	reg.Histogram("h", "", []int64{1, 10}, L("k", "x")).Observe(4)

	want, err := json.Marshal(dumpMap(reg))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("rendered dump differs from json.Marshal:\n got %s\nwant %s", got, want)
	}

	snap := Snapshot{TMS: 1.5, Phase: "measure", Cycles: 7, CyclesPerSec: 3.25,
		PointsDone: 1, PointsTotal: 3, Metrics: dumpMap(reg)}
	want, err = json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(wireSnapshot{snap, reg.appendJSON(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot line differs from json.Marshal:\n got %s\nwant %s", got, want)
	}

	reg.Gauge("nan", "").Set(math.NaN())
	reg.Gauge("inf", "").Set(math.Inf(-1))
	var m map[string]float64
	if err := json.Unmarshal(reg.appendJSON(nil), &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["nan"]; ok || len(m) != len(dumpMap(reg))-2 {
		t.Fatalf("non-finite samples rendered: %d keys of %d", len(m), len(dumpMap(reg)))
	}
}

func dumpMap(reg *Registry) map[string]float64 {
	m := map[string]float64{}
	reg.Each(func(k string, v float64) { m[k] = v })
	return m
}

// TestFreezeKeepsTheRigsState: a frozen rig's line carries the phase,
// counts, points and registry dump it had when frozen, reads the same
// however long after, and holds them while the rig moves on.
func TestFreezeKeepsTheRigsState(t *testing.T) {
	rig := runShaped(t)
	rig.Profile.SetPhase(PhaseDone)
	f := rig.Freeze()
	want := dumpMap(rig.Registry)

	var snap Snapshot
	if err := json.Unmarshal(f.Line, &snap); err != nil {
		t.Fatalf("%v\n%s", err, f.Line)
	}
	if f.Line[len(f.Line)-1] != '\n' || bytes.Count(f.Line, []byte("\n")) != 1 {
		t.Fatalf("frozen line is not one newline-terminated line: %q", f.Line)
	}
	if snap.Phase != "done" || snap.Cycles != 1000 ||
		snap.PointsDone != 1 || snap.PointsTotal != 1 || f.PointsDone != 1 || f.PointsTotal != 1 {
		t.Fatalf("frozen line = %+v (points %d/%d)", snap, f.PointsDone, f.PointsTotal)
	}
	if snap.TMS <= 0 || snap.CyclesPerSec <= 0 {
		t.Fatalf("frozen line has t_ms %g and cycles/s %g, want the session's wall time and average", snap.TMS, snap.CyclesPerSec)
	}
	for k, v := range want {
		if k == "noc_sim_wall_seconds" || k == "noc_sim_cycles_per_sec" {
			continue // wall clock: read again after the freeze
		}
		if snap.Metrics[k] != v {
			t.Errorf("frozen %s = %g, the rig read %g", k, snap.Metrics[k], v)
		}
	}
	if len(snap.Metrics) != len(want) {
		t.Errorf("frozen dump has %d samples, the rig %d", len(snap.Metrics), len(want))
	}

	line := append([]byte(nil), f.Line...)
	time.Sleep(5 * time.Millisecond)
	rig.Profile.Advance(10)
	if !bytes.Equal(f.Line, line) {
		t.Fatal("frozen line changed after the rig moved on")
	}
	if (*Rig)(nil).Freeze().Line != nil {
		t.Fatal("a nil rig froze a line")
	}
}

// TestDumpWhileRegistering: dumps taken while other goroutines register
// new series each see a sorted list that never moves under them, and
// the last dump sees every series. Run it under -race.
func TestDumpWhileRegistering(t *testing.T) {
	const workers, each = 4, 200
	reg := NewRegistry()
	reg.Counter("base_total", "").Inc()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				reg.Counter("c_total", "", L("w", strconv.Itoa(w)), L("i", strconv.Itoa(i))).Inc()
				prev := ""
				reg.Each(func(k string, _ float64) {
					if k <= prev {
						t.Errorf("dump out of order: %q after %q", k, prev)
					}
					prev = k
				})
				var m map[string]float64
				if err := json.Unmarshal(reg.appendJSON(nil), &m); err != nil || m["base_total"] != 1 {
					t.Errorf("rendered dump: %v, base_total %g", err, m["base_total"])
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(dumpMap(reg)); n != 1+workers*each {
		t.Fatalf("final dump has %d series, want %d", n, 1+workers*each)
	}
}
