package traffic

import (
	"testing"

	"gonoc/internal/transport"
)

// TestTagWraparoundNoLeak is the regression test for the tag-reuse bug:
// when the per-source tag counter wraps while transactions are still
// outstanding, a colliding tag must be skipped, not silently overwrite
// the outstanding entry (which leaked inflight and corrupted
// Incomplete). The tag space is shrunk to 16 so a saturated run wraps
// it thousands of times.
func TestTagWraparoundNoLeak(t *testing.T) {
	cfg := Config{
		Seed: 11, Nodes: 4, Pattern: UniformRandom, Rate: 0.9,
		Warmup: -1, Measure: 1500, Drain: 30000,
	}
	c := cfg.withDefaults()
	r := newRig(&c)
	for _, s := range r.srcs {
		s.tagSpace = 16
	}
	r.run()
	if r.col.tagCollisions == 0 {
		t.Fatal("saturated run with a 16-tag space never collided; wrap path not exercised")
	}
	// Finish everything still queued or in flight: with no leak, every
	// source ends idle and its books balance.
	idle := func() bool {
		if !r.net.Drained() {
			return false
		}
		for _, s := range r.srcs {
			if s.q.Len() > 0 || s.replyQ.Len() > 0 || s.inflight > 0 || len(s.outstanding) > 0 {
				return false
			}
		}
		return true
	}
	for c := 0; c < 300000 && !idle(); c += 64 {
		r.clk.RunCycles(64)
	}
	for i, s := range r.srcs {
		if s.inflight != len(s.outstanding) {
			t.Fatalf("source %d books diverged: inflight=%d outstanding=%d", i, s.inflight, len(s.outstanding))
		}
		if s.inflight != 0 {
			t.Fatalf("source %d leaked %d inflight transactions after full drain", i, s.inflight)
		}
	}
	if got := r.measuredOutstanding(); got != 0 {
		t.Fatalf("%d measured transactions unaccounted for after full drain", got)
	}
}

// TestTagsUniqueAmongOutstanding asserts the allocation invariant
// directly: no two outstanding transactions of one source ever share a
// tag, even with a tiny tag space under saturation.
func TestTagsUniqueAmongOutstanding(t *testing.T) {
	cfg := Config{
		Seed: 12, Nodes: 4, Pattern: UniformRandom, Rate: 0.9,
		Warmup: -1, Measure: 400, Drain: 2000,
	}
	c := cfg.withDefaults()
	r := newRig(&c)
	for _, s := range r.srcs {
		s.tagSpace = 8
	}
	for cyc := 0; cyc < 600; cyc++ {
		r.clk.RunCycles(1)
		for i, s := range r.srcs {
			// The map enforces tag uniqueness; what the bug broke was the
			// inflight/outstanding correspondence.
			if s.inflight != len(s.outstanding) {
				t.Fatalf("cycle %d source %d: inflight=%d but %d outstanding tags",
					cyc, i, s.inflight, len(s.outstanding))
			}
			if len(s.outstanding) > 8 {
				t.Fatalf("source %d exceeded its tag space: %d outstanding", i, len(s.outstanding))
			}
		}
	}
}

// TestDrainCompletionsInNetLat is the regression test for the
// measurement-window bias: packets queued during the measurement window
// but ejected during drain must appear in the fabric-latency sample
// (dropping them understated saturation latency).
func TestDrainCompletionsInNetLat(t *testing.T) {
	cfg := Config{
		Seed: 13, Nodes: 8, Pattern: UniformRandom, Rate: 0.4,
		Warmup: -1, Measure: 200, Drain: 20000,
	}
	c := cfg.withDefaults()
	r := newRig(&c)

	// Replicate run()'s phases so the sample size at measure-end is
	// observable.
	r.clk.RunCycles(c.Warmup)
	r.measuring = true
	r.clk.RunCycles(c.Measure)
	r.measuring = false
	atMeasureEnd := r.col.netLat.Count()
	for cyc := int64(0); cyc < c.Drain && r.measuredOutstanding() > 0; cyc += 64 {
		r.clk.RunCycles(64)
	}
	if r.col.netLat.Count() <= atMeasureEnd {
		t.Fatalf("no drain-phase completions recorded: %d at measure end, %d after drain (saturated run must have packets in flight at the cut)",
			atMeasureEnd, r.col.netLat.Count())
	}
}

// TestNetLatWindowMembership asserts the gating rule packet by packet:
// the fabric-latency sample holds exactly the packets whose QueuedCycle
// fell inside the measurement window — warmup packets ejecting during
// the window stay out, measured packets ejecting during drain stay in.
func TestNetLatWindowMembership(t *testing.T) {
	cfg := Config{
		Seed: 14, Nodes: 8, Pattern: UniformRandom, Rate: 0.3,
		Warmup: 300, Measure: 400, Drain: 20000,
	}
	c := cfg.withDefaults()
	r := newRig(&c)

	// Count ground truth independently, wrapping the rig's own hook.
	inner := r.net.OnTransit
	var inWindow, ejectedOutsideWindow int
	r.net.OnTransit = func(rec transport.TransitRecord) {
		if rec.QueuedCycle >= c.Warmup && rec.QueuedCycle < c.Warmup+c.Measure {
			inWindow++
			if now := r.clk.Cycle(); now < c.Warmup || now >= c.Warmup+c.Measure {
				ejectedOutsideWindow++
			}
		}
		inner(rec)
	}
	r.run()
	if got := r.col.netLat.Count(); got != inWindow {
		t.Fatalf("netLat sample has %d packets, %d were queued in the window", got, inWindow)
	}
	if ejectedOutsideWindow == 0 {
		t.Fatal("no window-queued packet ejected outside the window; bias regression not exercised")
	}
}

// TestDrainCapExact pins the tightened drain loop: a run that hits the
// drain cap stops at exactly Warmup+Measure+Drain cycles instead of
// overshooting by up to 63.
func TestDrainCapExact(t *testing.T) {
	cfg := Config{
		Seed: 15, Nodes: 8, Pattern: Hotspot, HotFrac: 0.9, Rate: 0.8,
		Warmup: 100, Measure: 500, Drain: 100, // far too short to finish
	}
	res := Run(cfg)
	if res.Incomplete == 0 {
		t.Fatal("run expected to hit the drain cap finished; tighten the test load")
	}
	if want := int64(100 + 500 + 100); res.Cycles != want {
		t.Fatalf("drain cap overshot: %d cycles simulated, want exactly %d", res.Cycles, want)
	}
}

// TestRunAllTopologies drives one modest load point through every
// topology end to end — the traffic-layer proof that topology is a
// transport-layer choice.
func TestRunAllTopologies(t *testing.T) {
	for _, topo := range transport.Topologies() {
		res := Run(Config{
			Seed: 16, Nodes: 16, Topology: topo, Pattern: UniformRandom, Rate: 0.02,
			Warmup: 300, Measure: 1200, Drain: 20000,
		})
		if res.Latency.Count == 0 {
			t.Fatalf("%s: nothing measured", topo)
		}
		if res.Incomplete != 0 {
			t.Fatalf("%s: %d transactions stuck at 2%% load", topo, res.Incomplete)
		}
		if res.Topology != topo.String() {
			t.Fatalf("topology label %q, want %q", res.Topology, topo)
		}
		if topo != Crossbar && res.AvgHops <= 1 {
			t.Fatalf("%s: avg hops %.2f implausible for a multi-switch fabric", topo, res.AvgHops)
		}
	}
}

// TestTorusBeatsMeshUnderLoad pins the wraparound payoff the torus
// exists for: at the same near-saturation offered load, the torus (at
// least) matches the mesh on delivered throughput and undercuts its
// latency, because wrap links halve the average hop count.
func TestTorusBeatsMeshUnderLoad(t *testing.T) {
	base := Config{
		Seed: 17, Nodes: 16, Pattern: UniformRandom, Rate: 0.10,
		Warmup: 500, Measure: 2500, Drain: 12000,
	}
	mesh := base
	mesh.Topology = Mesh
	torus := base
	torus.Topology = Torus
	rm, rt := Run(mesh), Run(torus)
	if rt.AvgHops >= rm.AvgHops {
		t.Fatalf("torus avg hops %.2f not below mesh %.2f", rt.AvgHops, rm.AvgHops)
	}
	if rt.Latency.Mean >= rm.Latency.Mean {
		t.Fatalf("torus latency %.1f not below mesh %.1f at rate 0.10", rt.Latency.Mean, rm.Latency.Mean)
	}
}
