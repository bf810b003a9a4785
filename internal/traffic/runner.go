package traffic

import (
	"fmt"
	"slices"
	"time"

	"gonoc/internal/stats"
)

// WallStats is the wall-clock self-profile of one run: how long each
// phase took outside simulated time, and how much kernel work it was.
// Everything here except Events is nondeterministic by nature, which
// is why results only carry it when Config.CollectWall asks (the
// determinism tests compare results with Wall normalized away).
type WallStats struct {
	WarmupMS  float64 `json:"warmup_ms"`
	MeasureMS float64 `json:"measure_ms"`
	DrainMS   float64 `json:"drain_ms"`
	TotalMS   float64 `json:"total_ms"`

	Events       uint64  `json:"events"`         // clock edges the kernel fired (deterministic; the cycles, on one clock)
	EventsPerSec float64 `json:"events_per_sec"` // events / total wall
	CyclesPerSec float64 `json:"cycles_per_sec"` // simulated cycles / total wall
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func newWallStats(warmup, measure, drain time.Duration, events uint64, cycles int64) *WallStats {
	w := &WallStats{
		WarmupMS:  durMS(warmup),
		MeasureMS: durMS(measure),
		DrainMS:   durMS(drain),
		TotalMS:   durMS(warmup + measure + drain),
		Events:    events,
	}
	if total := (warmup + measure + drain).Seconds(); total > 0 {
		w.EventsPerSec = float64(events) / total
		w.CyclesPerSec = float64(cycles) / total
	}
	return w
}

// FlowStat is the exported latency digest of one source/destination
// pair.
type FlowStat struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P95   int64   `json:"p95"`
}

// Result is one traffic run's measurement-phase digest. Rates are
// transactions per node per cycle.
type Result struct {
	Pattern    string  `json:"pattern"`
	Topology   string  `json:"topology"`
	Nodes      int     `json:"nodes"`
	ClosedLoop bool    `json:"closed_loop"`
	Offered    float64 `json:"offered"`   // configured injection rate (open loop)
	GenRate    float64 `json:"gen_rate"`  // observed generation rate
	InjRate    float64 `json:"inj_rate"`  // requests accepted by endpoints
	Throughput float64 `json:"tput"`      // completions during the window
	Saturated  bool    `json:"saturated"` // throughput fell visibly below offered

	Latency       stats.LatencySummary `json:"latency"`     // generation -> response, cycles
	NetLatency    stats.LatencySummary `json:"net_latency"` // per-packet fabric inject -> eject
	AvgHops       float64              `json:"avg_hops"`
	Hist          []stats.HistBucket   `json:"hist"`
	Flows         []FlowStat           `json:"flows,omitempty"`
	Incomplete    int                  `json:"incomplete"`     // measured txns unfinished at drain cap
	TagCollisions uint64               `json:"tag_collisions"` // busy tags skipped after tag-counter wrap
	Cycles        int64                `json:"cycles"`         // total cycles simulated
	FabricFlits   uint64               `json:"fabric_flits"`   // flits forwarded by all switches, whole run

	// InjectBackpressure counts source-cycles during the measurement
	// window where a pending transaction found its endpoint unable to
	// accept a packet — the injection-side congestion signal.
	InjectBackpressure uint64 `json:"inject_backpressure"`

	// Wall is the run's wall-clock self-profile; present only when
	// Config.CollectWall was set (see WallStats).
	Wall *WallStats `json:"wall,omitempty"`
}

// satThreshold: a run counts as saturated when accepted throughput falls
// below this fraction of the generated load.
const satThreshold = 0.9

// Run executes one traffic configuration and returns its digest, with
// the per-flow digests that sweep and campaign points go without.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	r := newRig(&cfg)
	r.run()
	res := r.result()
	res.Flows = flowStats(r.col.flows)
	return res
}

// run executes one sweep or campaign point and returns its digest and
// its raw latency histogram, which Campaign merges exactly across
// points (Result carries only the lossy bucket export). Neither keeps
// the rig alive.
func run(cfg Config) (Result, stats.Histogram) {
	cfg = cfg.withDefaults()
	r := newRig(&cfg)
	r.run()
	return r.result(), r.col.hist
}

// result digests a finished run, without per-flow digests.
func (r *rig) result() Result {
	cfg := r.cfg
	col := &r.col
	nodeCycles := float64(cfg.Nodes) * float64(cfg.Measure)
	res := Result{
		Pattern:       cfg.Pattern.String(),
		Topology:      cfg.Topology.String(),
		Nodes:         cfg.Nodes,
		ClosedLoop:    cfg.ClosedLoop,
		Offered:       cfg.Rate,
		GenRate:       float64(col.generated) / nodeCycles,
		InjRate:       float64(col.injected) / nodeCycles,
		Throughput:    float64(col.completed) / nodeCycles,
		Latency:       col.agg.Summary(),
		NetLatency:    col.netLat.Summary(),
		Hist:          col.hist.Buckets(),
		Incomplete:    int(r.measuredOutstanding()),
		TagCollisions: col.tagCollisions,
		Cycles:        r.clk.Cycle(),

		InjectBackpressure: col.backpressure,
		Wall:               r.wall,
	}
	// Fabric-wide flit total: the ground truth the congestion heatmap's
	// per-link counts must sum to (both tally switch-output traversals).
	for _, rt := range r.net.Routers() {
		res.FabricFlits += rt.Stats().FlitsMoved
	}
	if cfg.ClosedLoop {
		res.Offered = 0
	}
	if col.hopPkts > 0 {
		res.AvgHops = float64(col.hops) / float64(col.hopPkts)
	}
	if !cfg.ClosedLoop && res.GenRate > 0 {
		res.Saturated = res.Throughput < satThreshold*res.GenRate
	}
	return res
}

// Label names the run "<topology>/<pattern>@<offered>", as progress
// lines and per-point heatmaps do.
func (res Result) Label() string {
	return fmt.Sprintf("%s/%s@%g", res.Topology, res.Pattern, res.Offered)
}

// flowLog is one source's measured completions, each packed as
// dst<<flowLatBits | latency, so that one integer sort orders them by
// destination and then by latency. A destination is a node index below
// 2¹⁶ (NodeID is 16 bits), which leaves 47 bits for the latency.
type flowLog []int64

const flowLatBits = 47

func (f *flowLog) add(dst int, lat int64) { *f = append(*f, int64(dst)<<flowLatBits|lat) }

// flowStats digests the sources' logs, indexed by source, into one
// FlowStat per (src, dst) pair in that order: each log is sorted in
// place, once, and each run of one destination is that flow's sorted
// latencies.
func flowStats(logs []flowLog) []FlowStat {
	const latMask = 1<<flowLatBits - 1
	n := 0
	for _, recs := range logs {
		slices.Sort(recs)
		for i, v := range recs {
			if i == 0 || v>>flowLatBits != recs[i-1]>>flowLatBits {
				n++
			}
		}
	}
	out := make([]FlowStat, 0, n)
	for src, recs := range logs {
		for i := 0; i < len(recs); {
			dst := recs[i] >> flowLatBits
			var sum int64
			j := i
			for ; j < len(recs) && recs[j]>>flowLatBits == dst; j++ {
				sum += recs[j] & latMask
			}
			count := j - i
			out = append(out, FlowStat{
				Src: src, Dst: int(dst), Count: count,
				Mean: float64(sum) / float64(count),
				P95:  recs[i+stats.NearestRank(count, 95)] & latMask,
			})
			i = j
		}
	}
	return out
}

// FlowTable renders the per-flow digests as a text table.
func FlowTable(res Result) *stats.Table {
	t := stats.NewTable("per-flow latency", "src", "dst", "txns", "mean (cyc)", "p95")
	for _, f := range res.Flows {
		t.AddRow(f.Src, f.Dst, f.Count, f.Mean, f.P95)
	}
	return t
}
