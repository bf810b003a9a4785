package traffic

import (
	"fmt"
	"time"

	"gonoc/internal/noctypes"
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

	// Live-metrics state (nil/zero when profiling is off).
	mBackpressure *metrics.Counter
	lastBP        uint64
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

	if cfg.Probe != nil {
		r.net.SetProbe(cfg.Probe)
	}
	if cfg.Metrics != nil {
		r.mBackpressure = cfg.Metrics.Counter("noc_traffic_backpressure_total",
			"source-cycles a pending transaction found its endpoint unable to accept (measure phase)")
	}

	r.srcs = make([]*source, cfg.Nodes)
	for i := range r.srcs {
		r.srcs[i] = newSource(r, i, sim.NewRNG(sim.ForkSeed(cfg.Seed, fmt.Sprintf("src%d", i))))
	}
	return r
}

// measuredOutstanding counts measured txns not yet completed.
func (r *rig) measuredOutstanding() uint64 { return r.col.generated - r.col.measDone }

// profileChunk is the publishing cadence when self-profiling is on:
// the phase loops run the clock in chunks of this many cycles and
// publish deltas between chunks. Small enough that /metrics and
// snapshots track a long run closely, large enough that the per-chunk
// bookkeeping is noise.
const profileChunk = 512

// run executes warmup, measurement, and drain.
func (r *rig) run() {
	p := phases{clk: r.clk, prof: r.cfg.Prof, measuring: &r.measuring}
	if r.mBackpressure != nil {
		p.onChunk = func() {
			bp := r.col.backpressure
			r.mBackpressure.Add(bp - r.lastBP)
			r.lastBP = bp
		}
	}
	r.wall = p.run(r.cfg.Warmup, r.cfg.Measure, r.cfg.Drain,
		func() bool { return r.measuredOutstanding() > 0 }, r.cfg.CollectWall)
}

// phases runs one simulation's warmup, measure and drain on its clock,
// publishing self-profiling samples as it goes; the packet rig and
// RunTrans share it.
type phases struct {
	clk       *sim.Clock
	prof      *metrics.SimProfile
	measuring *bool  // set while the measure phase runs
	onChunk   func() // called after each published chunk; nil for none

	lastCycles, lastEvents int64
}

// run executes the three phases. The drain ends once busy reports no
// measured work left, or at the drain cap: busy is checked every 64
// cycles, with the last step clipped so the cap is exact. It returns
// the wall-clock self-profile when wall is set, else nil.
func (p *phases) run(warmup, measure, drain int64, busy func() bool, wall bool) *WallStats {
	t0 := time.Now()
	p.prof.SetPhase(metrics.PhaseWarmup)
	p.cycles(warmup)
	t1 := time.Now()
	*p.measuring = true
	p.prof.SetPhase(metrics.PhaseMeasure)
	p.cycles(measure)
	t2 := time.Now()
	*p.measuring = false
	p.prof.SetPhase(metrics.PhaseDrain)
	for c := int64(0); c < drain && busy(); {
		step := min(int64(64), drain-c)
		p.clk.RunCycles(step)
		c += step
		p.publish()
	}
	p.prof.SetPhase(metrics.PhaseDone)
	t3 := time.Now()
	if !wall {
		return nil
	}
	return newWallStats(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), p.clk.Kernel().Steps(), p.clk.Cycle())
}

// cycles advances the clock n cycles, chunked for publishing when live
// metrics are attached (the disabled path is a single RunCycles).
func (p *phases) cycles(n int64) {
	if p.prof == nil && p.onChunk == nil {
		p.clk.RunCycles(n)
		return
	}
	for done := int64(0); done < n; {
		step := min(int64(profileChunk), n-done)
		p.clk.RunCycles(step)
		done += step
		p.publish()
	}
}

// publish pushes the cycle and event deltas since the last call to the
// profile, then runs the chunk hook. Chunk boundaries are cycle-exact,
// so after the final publish of a run the live totals equal the
// deterministic per-run numbers.
func (p *phases) publish() {
	if p.prof != nil {
		k := p.clk.Kernel()
		c, e := p.clk.Cycle(), int64(k.Steps())
		p.prof.SetHeapDepth(k.Pending())
		p.prof.Advance(c-p.lastCycles, e-p.lastEvents)
		p.lastCycles, p.lastEvents = c, e
	}
	if p.onChunk != nil {
		p.onChunk()
	}
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
