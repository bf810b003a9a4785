package traffic

import (
	"fmt"
	"time"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

// collector accumulates measurement-phase statistics.
type collector struct {
	agg     stats.Latency
	hist    stats.Histogram
	flows   []flowLog // measured completions, indexed by source
	netLat  stats.Latency
	hops    int64
	hopPkts int64

	generated uint64 // txns generated while measuring
	injected  uint64 // request packets accepted by endpoints while measuring
	completed uint64 // completions observed while measuring (throughput)
	measDone  uint64 // measured txns completed (any phase)

	tagCollisions uint64 // busy tags skipped at injection after tag wrap
	backpressure  uint64 // source-cycles a non-empty queue found CanSend false while measuring
}

// rig is one assembled packet-level traffic experiment: a fabric plus a
// source/reflector per node.
type rig struct {
	cfg  *Config
	clk  *sim.Clock
	net  *transport.Network
	srcs []*source

	measuring bool
	// The measurement window in fabric cycles, [measStart, measEnd).
	// Known statically: warmup runs from cycle 0. Sources generate on
	// cycles 1..measEnd, the edges of warmup and measurement.
	measStart, measEnd int64
	col                collector

	// mBackpressure counts col.backpressure live (nil when metrics are
	// off).
	mBackpressure *metrics.Counter
	wall          *WallStats
}

// nodeID maps a source index onto a fabric NodeID (0 is reserved as a
// "no node" convention elsewhere in the repo).
func nodeID(i int) noctypes.NodeID { return noctypes.NodeID(i + 1) }

func newRig(cfg *Config) *rig {
	if cfg.Nodes < 2 {
		panic(fmt.Sprintf("traffic: need at least 2 nodes, got %d", cfg.Nodes))
	}
	if cfg.Pattern == Hotspot && (cfg.HotNode < 0 || cfg.HotNode >= cfg.Nodes) {
		panic(fmt.Sprintf("traffic: hotspot node %d outside [0,%d)", cfg.HotNode, cfg.Nodes))
	}
	r := &rig{cfg: cfg}
	r.clk = sim.NewClock(sim.NewKernel(), "traffic", sim.Nanosecond, 0)
	r.measStart = cfg.Warmup
	r.measEnd = cfg.Warmup + cfg.Measure

	nodes := make([]noctypes.NodeID, cfg.Nodes)
	for i := range nodes {
		nodes[i] = nodeID(i)
	}
	r.net = transport.Build(r.clk, cfg.Net, transport.Shape{Topology: cfg.Topology,
		W: cfg.MeshW, H: cfg.MeshH, Fanout: cfg.TreeFanout}, nodes)

	r.col.flows = make([]flowLog, cfg.Nodes)
	r.net.OnTransit = func(rec transport.TransitRecord) {
		// Membership in the fabric-latency sample is decided by when the
		// packet entered its source endpoint, not by when it happens to
		// eject: measured packets that finish during drain stay in (their
		// omission understated saturation latency), and warmup packets
		// that eject after the window opens stay out — the same rule
		// txn.measured applies to end-to-end latency.
		if rec.QueuedCycle < r.measStart || rec.QueuedCycle >= r.measEnd {
			return
		}
		r.col.netLat.Record(rec.NetworkLatency())
		r.col.hops += int64(rec.Hops)
		r.col.hopPkts++
	}

	if p := obs.Multi(cfg.Probe, cfg.Metrics.Probe()); p != nil {
		r.net.SetProbe(p)
	}
	r.mBackpressure = cfg.Metrics.Registry.Counter("noc_traffic_backpressure_total",
		"source-cycles a pending transaction found its endpoint unable to accept (measure phase)")

	r.srcs = make([]*source, cfg.Nodes)
	for i := range r.srcs {
		r.srcs[i] = newSource(r, i, sim.NewRNG(sim.ForkSeed(cfg.Seed, fmt.Sprintf("src%d", i))))
	}
	return r
}

// measuredOutstanding counts measured txns not yet completed.
func (r *rig) measuredOutstanding() uint64 { return r.col.generated - r.col.measDone }

// profileChunk is the publishing cadence of the warmup and measure
// phases: the profile's loop runs the clock in steps of this many
// cycles and publishes after each. Small enough that /metrics and
// snapshots track a long run closely, large enough that the per-step
// bookkeeping is noise.
const profileChunk = 512

// run executes warmup, measurement, and drain.
func (r *rig) run() {
	r.wall = runPhases(r.clk, r.cfg.Metrics.Profile, &r.measuring,
		r.cfg.Warmup, r.cfg.Measure, r.cfg.Drain,
		func() bool { return r.measuredOutstanding() > 0 }, r.cfg.CollectWall)
}

// runPhases runs one simulation's warmup, measure and drain on clk
// through the profile's loop, which publishes as it goes; the packet
// rig and RunTrans share it. measuring is set while the measure phase
// runs. The drain ends once busy reports no measured work left, or at
// the drain cap: busy is checked every 64 cycles, with the last step
// clipped so the cap is exact. It returns the wall-clock self-profile
// when wall is set, else nil.
func runPhases(clk *sim.Clock, prof *metrics.SimProfile, measuring *bool,
	warmup, measure, drain int64, busy func() bool, wall bool) *WallStats {
	t0 := time.Now()
	prof.SetPhase(metrics.PhaseWarmup)
	prof.Run(clk, warmup, profileChunk, nil)
	t1 := time.Now()
	*measuring = true
	prof.SetPhase(metrics.PhaseMeasure)
	prof.Run(clk, measure, profileChunk, nil)
	t2 := time.Now()
	*measuring = false
	prof.SetPhase(metrics.PhaseDrain)
	prof.Run(clk, drain, 64, busy)
	prof.SetPhase(metrics.PhaseDone)
	t3 := time.Now()
	if !wall {
		return nil
	}
	return newWallStats(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), clk.Kernel().Steps(), clk.Cycle())
}

// drawer makes a per-cycle Bernoulli process's draws ahead of time, in
// cycle order, up to the next success: the draws a per-cycle draw would
// make, in the same order on the same stream, taken in one batch
// (sim.RNG.Until). Traffic sources and RunTrans's issuers sleep until
// the cycle it finds.
type drawer struct {
	due   int64 // the cycle of the next successful draw, 0 when none is drawn
	drawn int64 // the last cycle whose draw has been made
}

// draw makes the Bool(rate) draws of the cycles from from on, past any
// already drawn, up to the first success or end. It keeps the success's
// cycle in due (0 when there is none) and arms w for it.
func (d *drawer) draw(rng *sim.RNG, rate float64, from, end int64, w sim.Waker) {
	d.due = 0
	c := max(from, d.drawn+1)
	if c > end {
		return
	}
	if k := rng.Until(rate, end-c+1); c+k <= end {
		d.drawn, d.due = c+k, c+k
		w.WakeAt(d.due)
	} else {
		d.drawn = end
	}
}
