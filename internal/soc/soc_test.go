package soc

import (
	"testing"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/transport"
)

func TestMixedNoCCompletes(t *testing.T) {
	s := BuildNoC(Config{Seed: 1, RequestsPerMaster: 15})
	cycles, err := s.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	for name, g := range s.Gens {
		st := g.Stats()
		if st.Completed != 15 {
			t.Errorf("%s: completed %d/15", name, st.Completed)
		}
		if st.Latency.Mean() <= 0 {
			t.Errorf("%s: no latency recorded", name)
		}
	}
}

func TestMixedBusCompletes(t *testing.T) {
	s := BuildBus(Config{Seed: 1, RequestsPerMaster: 8})
	if _, err := s.Run(4_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestNoCAndBusSameSeedSameData(t *testing.T) {
	// The two interconnects must deliver the same final memory state for
	// the same seeded workload — interconnect changes timing, not data.
	a := BuildNoC(Config{Seed: 42, RequestsPerMaster: 10})
	if _, err := a.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	b := BuildBus(Config{Seed: 42, RequestsPerMaster: 10})
	if _, err := b.Run(4_000_000); err != nil {
		t.Fatal(err)
	}
	// Spot-check each store across a few windows.
	for _, name := range []string{"axi", "ocp", "ahb", "bvci"} {
		x := a.Stores[name].Read(0, 0x30000)
		y := b.Stores[name].Read(0, 0x30000)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("store %s differs at %#x: noc=%#x bus=%#x", name, i, x[i], y[i])
			}
		}
	}
}

func TestNoCTopologies(t *testing.T) {
	for _, topo := range []Topology{Crossbar, Mesh, Tree} {
		s := BuildNoC(Config{Seed: 3, RequestsPerMaster: 6, Topology: topo})
		if _, err := s.Run(2_000_000); err != nil {
			t.Fatalf("topology %d: %v", topo, err)
		}
	}
}

func TestNoCSwitchingModes(t *testing.T) {
	for _, mode := range []transport.SwitchingMode{transport.Wormhole, transport.StoreAndForward} {
		cfg := Config{Seed: 5, RequestsPerMaster: 6}
		cfg.Net.Mode = mode
		cfg.Net.BufDepth = 64 // SAF needs full packets buffered
		s := BuildNoC(cfg)
		if _, err := s.Run(2_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

// TestLaneDepth pins the one rule for a SoC fabric with no lane depth
// given: 64-flit lanes under store-and-forward, 16-flit ones otherwise.
func TestLaneDepth(t *testing.T) {
	for mode, want := range map[transport.SwitchingMode]int{transport.Wormhole: 16, transport.StoreAndForward: 64} {
		cfg := Config{Quiet: true}
		cfg.Net.Mode = mode
		if got := BuildNoC(cfg).Net.Config().BufDepth; got != want {
			t.Errorf("%v build with no depth has %d-flit lanes, want %d", mode, got, want)
		}
	}
}

// TestRunStepsAreCycles pins that a fresh one-clock build's kernel
// fires exactly one step per cycle Run returns.
func TestRunStepsAreCycles(t *testing.T) {
	s := BuildNoC(Config{Seed: 4, RequestsPerMaster: 6})
	cycles, err := s.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.K.Steps() != uint64(cycles) {
		t.Fatalf("kernel fired %d steps in %d cycles", s.K.Steps(), cycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		s := BuildNoC(Config{Seed: 9, RequestsPerMaster: 8})
		cycles, err := s.Run(2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different cycle counts: %d vs %d", a, b)
	}
}

func TestNIUStatsExposed(t *testing.T) {
	s := BuildNoC(Config{Seed: 2, RequestsPerMaster: 5})
	if _, err := s.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	for name, n := range s.MasterNIUs {
		st := n.Stats()
		if st.Issued == 0 || st.Completed == 0 {
			t.Errorf("NIU %s: no traffic recorded (%+v)", name, st)
		}
	}
}

func TestIssuersDriveEveryMasterThroughNIUs(t *testing.T) {
	// One write then one read per master, issued through the generic
	// Issuer hook, must complete on the NoC build.
	s := BuildNoC(Config{Seed: 3, Quiet: true})
	iss := s.Issuers()
	if len(iss) != 7 {
		t.Fatalf("issuers: %d, want 7", len(iss))
	}
	done := 0
	for name, issue := range iss {
		r := genRegion(name)
		issue := issue
		issue(true, r.Base, 16, func(ok bool) {
			if !ok {
				t.Errorf("%s: write failed", name)
			}
			issue(false, r.Base, 16, func(ok bool) {
				if !ok {
					t.Errorf("%s: read failed", name)
				}
				done++
			})
		})
	}
	for c := 0; c < 200_000 && done < 7; c++ {
		s.Clk.RunCycles(1)
	}
	if done != 7 {
		t.Fatalf("only %d/7 issuer pairs completed", done)
	}
}

func TestWishboneNoCCompletes(t *testing.T) {
	for _, topo := range []Topology{Crossbar, Mesh, Tree} {
		s := BuildNoC(Config{Seed: 11, RequestsPerMaster: 10, Topology: topo, Wishbone: true})
		if _, err := s.Run(5_000_000); err != nil {
			t.Fatalf("topology %d: %v", topo, err)
		}
		g := s.Gens["wb"].Stats()
		if g.Completed != 10 || g.Mismatches != 0 || g.Errors != 0 {
			t.Fatalf("topology %d: wb generator stats %+v", topo, g)
		}
		if s.MasterNIUs["wb"].Stats().Issued == 0 {
			t.Fatalf("topology %d: wb NIU saw no traffic", topo)
		}
	}
}

func TestWishboneOffByDefault(t *testing.T) {
	s := BuildNoC(Config{Seed: 1, Quiet: true})
	if s.WBM != nil {
		t.Fatal("Wishbone master present without Config.Wishbone")
	}
	if _, ok := s.Issuers()["wb"]; ok {
		t.Fatal("wb issuer present without Config.Wishbone")
	}
	if _, ok := s.Stores["wb"]; ok {
		t.Fatal("wb store present without Config.Wishbone")
	}
}

func TestWishboneIssuer(t *testing.T) {
	s := BuildNoC(Config{Seed: 2, Quiet: true, Wishbone: true})
	is, ok := s.Issuers()["wb"]
	if !ok {
		t.Fatal("wb issuer missing")
	}
	done, failed := 0, 0
	is(true, BaseWBMem+0x40, 16, func(ok bool) {
		if !ok {
			failed++
		}
		done++
		is(false, BaseWBMem+0x40, 16, func(ok bool) {
			if !ok {
				failed++
			}
			done++
		})
	})
	for c := 0; c < 4000 && done < 2; c++ {
		s.Clk.RunCycles(1)
	}
	if done != 2 || failed != 0 {
		t.Fatalf("wb issuer round trip: done=%d failed=%d", done, failed)
	}
}

// TestRunStopsAtItsCap pins System.Run's loop: it simulates at most
// maxCycles cycles, the last step clipped, and reports the cycles it
// ran; a system that finishes inside the clipped step succeeds; and an
// attached profile publishes exactly the cycles Run ran.
func TestRunStopsAtItsCap(t *testing.T) {
	build := func() *System { return BuildNoC(Config{Seed: 1, RequestsPerMaster: 15}) }
	s := build()
	c0 := s.Clk.Cycle()
	if ran, err := s.Run(100); err == nil || ran != 100 || s.Clk.Cycle()-c0 != 100 {
		t.Fatalf("Run(100) ran %d (clock +%d), err %v; want 100, 100 and an error", ran, s.Clk.Cycle()-c0, err)
	}

	// The cycle the last generator finishes on, found a cycle at a time.
	ref := build()
	var finish int64
	for !ref.AllDone() {
		ref.Clk.RunCycles(1)
		finish++
	}
	if finish%64 == 0 {
		t.Fatalf("the run finishes on cycle %d, a step boundary; pick a seed that finishes inside a step", finish)
	}
	s = build()
	if ran, err := s.Run(finish); err != nil || ran != finish {
		t.Fatalf("Run(%d) on a system finishing on that cycle ran %d, err %v", finish, ran, err)
	}

	s = build()
	s.Prof = metrics.NewSimProfile(metrics.NewRegistry())
	ran, err := s.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Prof.Cycles() != ran {
		t.Fatalf("published %d cycles; Run ran %d", s.Prof.Cycles(), ran)
	}
}
