package soc

import (
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
)

// quietFig1 builds the quiet Fig 1 system with Wishbone on — every NIU,
// protocol engine and memory present, no generators — and runs it past
// start-up.
func quietFig1(topo Topology) *System { return quietProbed(topo, nil) }

// quietProbed is quietFig1 with probe attached to the fabric.
func quietProbed(topo Topology, probe obs.Probe) *System {
	s := BuildNoC(Config{Seed: 1, Quiet: true, Wishbone: true, Topology: topo, Probe: probe})
	s.Clk.RunCycles(100)
	return s
}

// TestIdleCycleZeroAlloc pins the idle SoC cycle at zero allocations on
// the crossbar and the mesh: evaluating every NIU engine, protocol
// engine and memory slave with nothing to do must not touch the heap.
func TestIdleCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, tc := range []struct {
		name string
		topo Topology
	}{{"crossbar", Crossbar}, {"mesh", Mesh}} {
		s := quietFig1(tc.topo)
		if n := testing.AllocsPerRun(200, func() { s.Clk.RunCycles(1) }); n != 0 {
			t.Errorf("%s: idle cycle allocates %.2f objects, want 0", tc.name, n)
		}
	}
}

// TestIdleCycleEvaluatesNothing guards the active set independently of
// host speed: once the quiet Fig 1 SoC has settled, every NIU engine,
// protocol engine, memory and the empty fabric sleep, so idle cycles
// evaluate no component at all. A live-metrics collector reads no
// buffer samples, so it must not keep the fabric awake either.
func TestIdleCycleEvaluatesNothing(t *testing.T) {
	collector := func() obs.Probe { return metrics.NewFabricCollector(metrics.NewRegistry()) }
	for _, tc := range []struct {
		name  string
		topo  Topology
		probe obs.Probe
	}{
		{"crossbar", Crossbar, nil},
		{"mesh", Mesh, nil},
		{"crossbar+collector", Crossbar, collector()},
		{"mesh+collector", Mesh, collector()},
	} {
		s := quietProbed(tc.topo, tc.probe)
		before := s.Clk.Evals()
		s.Clk.RunCycles(1000)
		if n := s.Clk.Evals() - before; n != 0 {
			t.Errorf("%s: 1000 idle cycles evaluated %d components, want 0", tc.name, n)
		}
	}
}

// BenchmarkIdleSoCCycle measures one idle cycle of the quiet Fig 1
// crossbar system. CI guards allocs/op at zero (BENCH_transport.json).
func BenchmarkIdleSoCCycle(b *testing.B) {
	s := quietFig1(Crossbar)
	b.ReportAllocs()
	b.ResetTimer()
	s.Clk.RunCycles(int64(b.N))
}
