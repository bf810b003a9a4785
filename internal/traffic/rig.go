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

// Flow identifies one source/destination pair.
type Flow struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// collector accumulates measurement-phase statistics.
type collector struct {
	agg     stats.Latency
	hist    stats.Histogram
	perFlow map[Flow]*stats.Latency
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
	k    *sim.Kernel
	clk  *sim.Clock
	net  *transport.Network
	srcs []*source

	measuring bool
	// The measurement window in fabric cycles, [measStart, measEnd).
	// Known statically: warmup runs from cycle 0. Sources generate on
	// cycles 1..measEnd, the edges of warmup and measurement.
	measStart, measEnd int64
	col                collector

	// Live-metrics state (all nil/zero when profiling is off).
	mBackpressure          *metrics.Counter
	lastCycles, lastEvents int64
	lastBP                 uint64
	wall                   *WallStats
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
	r := &rig{cfg: cfg, k: sim.NewKernel()}
	r.clk = sim.NewClock(r.k, "traffic", sim.Nanosecond, 0)
	r.measStart = cfg.Warmup
	r.measEnd = cfg.Warmup + cfg.Measure

	nodes := make([]noctypes.NodeID, cfg.Nodes)
	for i := range nodes {
		nodes[i] = nodeID(i)
	}
	switch cfg.Topology {
	case Mesh, Torus:
		if cfg.MeshW*cfg.MeshH < cfg.Nodes {
			panic(fmt.Sprintf("traffic: %dx%d %s cannot hold %d nodes", cfg.MeshW, cfg.MeshH, cfg.Topology, cfg.Nodes))
		}
		spec := transport.MeshSpec{W: cfg.MeshW, H: cfg.MeshH, Nodes: map[noctypes.NodeID]transport.Coord{}}
		for i, n := range nodes {
			spec.Nodes[n] = transport.Coord{X: i % cfg.MeshW, Y: i / cfg.MeshW}
		}
		if cfg.Topology == Torus {
			r.net = transport.NewTorus(r.clk, cfg.Net, spec)
		} else {
			r.net = transport.NewMesh(r.clk, cfg.Net, spec)
		}
	case Ring:
		r.net = transport.NewRing(r.clk, cfg.Net, nodes)
	case Tree:
		r.net = transport.NewTree(r.clk, cfg.Net, cfg.TreeFanout, nodes)
	default:
		r.net = transport.NewCrossbar(r.clk, cfg.Net, nodes)
	}

	r.col.perFlow = make(map[Flow]*stats.Latency)
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

	root := sim.NewRNG(cfg.Seed)
	r.srcs = make([]*source, cfg.Nodes)
	for i := range r.srcs {
		r.srcs[i] = newSource(r, i, root.Fork(fmt.Sprintf("src%d", i)))
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

// run executes warmup, measurement, and drain; it returns the total
// cycles simulated.
func (r *rig) run() int64 {
	prof := r.cfg.Prof
	t0 := time.Now()
	prof.SetPhase(metrics.PhaseWarmup)
	r.runCycles(r.cfg.Warmup)
	t1 := time.Now()
	r.measuring = true
	prof.SetPhase(metrics.PhaseMeasure)
	r.runCycles(r.cfg.Measure)
	t2 := time.Now()
	r.measuring = false
	prof.SetPhase(metrics.PhaseDrain)
	// Drain: finish the measured transactions, up to the cap. The
	// completion check runs every 64 cycles, with the last step clipped
	// so the cap is exact rather than overshooting by up to 63 cycles.
	for c := int64(0); c < r.cfg.Drain && r.measuredOutstanding() > 0; {
		step := int64(64)
		if c+step > r.cfg.Drain {
			step = r.cfg.Drain - c
		}
		r.clk.RunCycles(step)
		c += step
		r.publish()
	}
	prof.SetPhase(metrics.PhaseDone)
	t3 := time.Now()
	if r.cfg.CollectWall {
		r.wall = newWallStats(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), r.k.Steps(), r.clk.Cycle())
	}
	return r.clk.Cycle()
}

// runCycles advances the clock n cycles, chunked for publishing when
// live metrics are attached (the disabled path is a single RunCycles —
// identical to the pre-metrics code).
func (r *rig) runCycles(n int64) {
	if r.cfg.Prof == nil && r.mBackpressure == nil {
		r.clk.RunCycles(n)
		return
	}
	for done := int64(0); done < n; {
		step := int64(profileChunk)
		if done+step > n {
			step = n - done
		}
		r.clk.RunCycles(step)
		done += step
		r.publish()
	}
}

// publish pushes cycle/event/backpressure deltas since the last call
// to the attached profiling sinks. Chunk boundaries are cycle-exact,
// so after the final publish of a run the live totals equal the
// deterministic per-run numbers.
func (r *rig) publish() {
	if p := r.cfg.Prof; p != nil {
		c, e := r.clk.Cycle(), int64(r.k.Steps())
		p.SetHeapDepth(r.k.Pending())
		p.Advance(c-r.lastCycles, e-r.lastEvents)
		r.lastCycles, r.lastEvents = c, e
	}
	if r.mBackpressure != nil {
		bp := r.col.backpressure
		r.mBackpressure.Add(bp - r.lastBP)
		r.lastBP = bp
	}
}
