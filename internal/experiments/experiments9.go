package experiments

import (
	"fmt"
	"math"
	"time"

	"gonoc/internal/scenario"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// E16 validates the hybrid-fidelity fast path (transport.FidelityHybrid)
// the only way an approximate mode can be trusted: against the exact
// answer, on the workloads the mode is built for.
//
// The experiment has two halves:
//
//   - The ENVELOPE sweep — 64-endpoint fabrics across five topologies
//     at light-to-moderate offered load, the uncongested region where
//     large design sweeps spend most of their points. Each point runs
//     cycle-accurate and hybrid; the per-metric relative errors
//     (mean/p50/p99 latency, throughput) are asserted under the
//     declared tolerances and reported next to the wall-clock speedup
//     the approximation buys. The verdict also times the end-to-end
//     benchmark's mesh64-hybrid configuration at both fidelities.
//
//   - The STRESS rows — the packet built-ins at native configuration,
//     deliberately hot workloads (the hotspot built-ins saturate their
//     hot ejection port). These rows are informational, not asserted:
//     they show the congestion-triggered fallback doing its job — the
//     speedup column collapses toward 1x because hot regions run
//     cycle-accurate — and they honestly record the residual error
//     from packets approximated before a region's utilization window
//     tripped the threshold. Saturated points are what the fallback is
//     for, not what the analytic model is for.
//
// Store-and-forward is absent from the envelope on purpose: the SAF
// per-hop step amplifies the FIFO queueing estimate, and probing shows
// its p50 error above 5% even at rate 0.001. SAF exactness at zero
// contention is pinned by the transport tests (FuzzLooseLatencyExact);
// under load, use cycle fidelity for SAF fabrics (docs/PERFORMANCE.md).

// E16 tolerances: the bounds the hybrid mode must stay inside on the
// envelope sweep (the CI fidelity job enforces the same numbers on the
// archived BENCH_fidelity_e16.json).
const (
	E16TolMean = 0.05 // mean-latency relative error
	E16TolP50  = 0.05 // p50-latency relative error
	E16TolP99  = 0.05 // p99-latency relative error
	E16TolTput = 0.01 // throughput relative error
)

// e16Envelope is the asserted operating-envelope sweep. Every point
// was probed across multiple seeds with margin against the tolerances
// before being admitted; rates are chosen per topology so the busiest
// link stays below the fallback threshold and the analytic model keeps
// the fabric out of per-flit simulation.
var e16Envelope = []struct {
	Label   string
	Topo    traffic.Topology
	Pattern traffic.Pattern
	Rate    float64
	QoS     bool
}{
	{"mesh8x8/uniform/0.006", traffic.Mesh, traffic.UniformRandom, 0.006, false},
	{"mesh8x8/uniform/0.006/qos", traffic.Mesh, traffic.UniformRandom, 0.006, true},
	{"torus8x8/uniform/0.010", traffic.Torus, traffic.UniformRandom, 0.010, false},
	{"ring64/neighbor/0.010", traffic.Ring, traffic.NearestNeighbor, 0.010, false},
	{"ring64/neighbor/0.020", traffic.Ring, traffic.NearestNeighbor, 0.020, false},
	{"xbar64/uniform/0.010", traffic.Crossbar, traffic.UniformRandom, 0.010, false},
	{"tree64/uniform/0.002", traffic.Tree, traffic.UniformRandom, 0.002, false},
}

// e16StressRate is the single offered load the built-in stress rows
// run at — well into the region where their hot resources saturate.
const e16StressRate = 0.05

// e16MeshConfig is the end-to-end benchmark's mesh64-hybrid
// configuration: an 8x8 mesh under uniform traffic at rate 0.01,
// measured for 40,000 cycles. Hybrid is kept only while it runs it at
// least e16MeshBar times faster than cycle fidelity, the second half
// of the rule its keep-or-delete verdict was taken under.
func e16MeshConfig(seed int64) traffic.Config {
	return traffic.Config{
		Seed: seed, Nodes: 64, Topology: traffic.Mesh, Pattern: traffic.UniformRandom,
		Rate: 0.01, Warmup: 1000, Measure: 40000, Drain: 30000,
	}
}

const e16MeshBar = 1.3

// E16Point is one (workload, fidelity-pair) comparison.
type E16Point struct {
	Scenario string  `json:"scenario"`
	Rate     float64 `json:"rate"`
	Asserted bool    `json:"asserted"` // envelope row (true) or stress row

	CycleWallMS  float64 `json:"cycle_wall_ms"`
	HybridWallMS float64 `json:"hybrid_wall_ms"`

	MeanErr float64 `json:"mean_err"` // |hybrid-cycle|/cycle, mean latency
	P50Err  float64 `json:"p50_err"`
	P99Err  float64 `json:"p99_err"`
	TputErr float64 `json:"tput_err"`
}

// E16Result carries the sweep, the aggregate bounds the CI guard reads,
// and the printed tables. Speedup and the Max*Err fields aggregate the
// ENVELOPE rows only; stress rows are reported but never asserted.
type E16Result struct {
	Tables []*stats.Table `json:"-"`
	Points []E16Point     `json:"points"`

	Speedup    float64 `json:"speedup"` // envelope cycle wall / hybrid wall
	MaxMeanErr float64 `json:"max_mean_err"`
	MaxP50Err  float64 `json:"max_p50_err"`
	MaxP99Err  float64 `json:"max_p99_err"`
	MaxTputErr float64 `json:"max_tput_err"`

	// Pass is the error-bound verdict on the envelope (speedup is
	// judged separately: wall clock belongs to the host, so the library
	// reports it and the CI guard asserts it).
	Pass bool `json:"pass"`
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// e16Run executes one point at one fidelity and returns the result with
// its wall time in milliseconds.
func e16Run(cfg traffic.Config, fid transport.Fidelity) (traffic.Result, float64) {
	cfg.Net.Fidelity = fid
	start := time.Now()
	res := traffic.Run(cfg)
	return res, float64(time.Since(start).Nanoseconds()) / 1e6
}

// e16Compare runs one workload at both fidelities and digests the
// relative errors.
func e16Compare(label string, cfg traffic.Config, asserted bool) E16Point {
	exact, cms := e16Run(cfg, transport.FidelityCycle)
	approx, hms := e16Run(cfg, transport.FidelityHybrid)
	return E16Point{
		Scenario:     label,
		Rate:         cfg.Rate,
		Asserted:     asserted,
		CycleWallMS:  cms,
		HybridWallMS: hms,
		MeanErr:      relErr(approx.Latency.Mean, exact.Latency.Mean),
		P50Err:       relErr(float64(approx.Latency.P50), float64(exact.Latency.P50)),
		P99Err:       relErr(float64(approx.Latency.P99), float64(exact.Latency.P99)),
		TputErr:      relErr(approx.Throughput, exact.Throughput),
	}
}

func e16AddRow(t *stats.Table, p E16Point) {
	t.AddRow(p.Scenario, fmt.Sprintf("%.3f", p.Rate),
		fmt.Sprintf("%.4f", p.MeanErr), fmt.Sprintf("%.4f", p.P50Err),
		fmt.Sprintf("%.4f", p.P99Err), fmt.Sprintf("%.4f", p.TputErr),
		fmt.Sprintf("%.1f", p.CycleWallMS), fmt.Sprintf("%.1f", p.HybridWallMS),
		fmt.Sprintf("%.1fx", p.CycleWallMS/math.Max(p.HybridWallMS, 1e-9)))
}

// E16FidelitySweep runs the envelope sweep (asserted) and the built-in
// stress rows (informational) and digests the error bounds.
func E16FidelitySweep(seed int64) E16Result {
	var res E16Result
	var cycleWall, hybridWall float64

	et := stats.NewTable(
		fmt.Sprintf("E16 — hybrid-fidelity operating envelope, 64 endpoints (seed %d): relative error vs cycle-accurate, asserted", seed),
		"workload", "rate", "mean err", "p50 err", "p99 err", "tput err", "cycle ms", "hybrid ms", "speedup")
	for _, e := range e16Envelope {
		cfg := traffic.Config{
			Seed:         seed,
			Nodes:        64,
			Topology:     e.Topo,
			Pattern:      e.Pattern,
			Rate:         e.Rate,
			PayloadBytes: 32,
			Warmup:       300,
			Measure:      4000,
			Drain:        20000,
		}
		switch e.Topo {
		case traffic.Mesh, traffic.Torus:
			cfg.MeshW, cfg.MeshH = 8, 8
		case traffic.Tree:
			cfg.TreeFanout = 4
		}
		cfg.Net.QoS = e.QoS
		p := e16Compare(e.Label, cfg, true)
		res.Points = append(res.Points, p)
		cycleWall += p.CycleWallMS
		hybridWall += p.HybridWallMS
		res.MaxMeanErr = math.Max(res.MaxMeanErr, p.MeanErr)
		res.MaxP50Err = math.Max(res.MaxP50Err, p.P50Err)
		res.MaxP99Err = math.Max(res.MaxP99Err, p.P99Err)
		res.MaxTputErr = math.Max(res.MaxTputErr, p.TputErr)
		e16AddRow(et, p)
	}
	if hybridWall > 0 {
		res.Speedup = cycleWall / hybridWall
	}
	res.Pass = res.MaxMeanErr <= E16TolMean && res.MaxP50Err <= E16TolP50 &&
		res.MaxP99Err <= E16TolP99 && res.MaxTputErr <= E16TolTput
	res.Tables = append(res.Tables, et)

	st := stats.NewTable(
		fmt.Sprintf("E16 — saturated built-ins at rate %.2f (seed %d): fallback stress rows, informational (hot regions run cycle-accurate, so speedup collapses by design)", e16StressRate, seed),
		"workload", "rate", "mean err", "p50 err", "p99 err", "tput err", "cycle ms", "hybrid ms", "speedup")
	for _, name := range scenario.Names() {
		sc, ok := scenario.Get(name)
		if !ok || sc.Workload.Kind != scenario.KindPacket {
			continue
		}
		sc.Seed = seed
		cfg, err := sc.PacketConfig()
		if err != nil {
			panic("experiments: built-in " + name + " did not lower: " + err.Error())
		}
		// One measurement protocol for every stress row: the comparison
		// is between fidelity modes, not between scenario defaults.
		cfg.Warmup, cfg.Measure, cfg.Drain = 300, 2000, 20000
		cfg.Rate = e16StressRate
		p := e16Compare(name, cfg, false)
		res.Points = append(res.Points, p)
		e16AddRow(st, p)
	}
	res.Tables = append(res.Tables, st)

	_, meshCycle := e16Run(e16MeshConfig(seed), transport.FidelityCycle)
	_, meshHybrid := e16Run(e16MeshConfig(seed), transport.FidelityHybrid)
	meshSpeedup := meshCycle / math.Max(meshHybrid, 1e-9)

	vt := stats.NewTable("E16 — fidelity verdict: the envelope's error bounds (mean/p50/p99 latency 5%, throughput 1%) and hybrid's wall speedups",
		"check", "value", "bound", "ok")
	vt.AddRow("max mean-latency error", fmt.Sprintf("%.4f", res.MaxMeanErr), fmt.Sprintf("%.2f", E16TolMean), stats.Mark(res.MaxMeanErr <= E16TolMean))
	vt.AddRow("max p50-latency error", fmt.Sprintf("%.4f", res.MaxP50Err), fmt.Sprintf("%.2f", E16TolP50), stats.Mark(res.MaxP50Err <= E16TolP50))
	vt.AddRow("max p99-latency error", fmt.Sprintf("%.4f", res.MaxP99Err), fmt.Sprintf("%.2f", E16TolP99), stats.Mark(res.MaxP99Err <= E16TolP99))
	vt.AddRow("max throughput error", fmt.Sprintf("%.4f", res.MaxTputErr), fmt.Sprintf("%.2f", E16TolTput), stats.Mark(res.MaxTputErr <= E16TolTput))
	vt.AddRow("hybrid wall speedup on the envelope", fmt.Sprintf("%.2fx", res.Speedup), ">= 2x (CI guard)", stats.Mark(res.Speedup >= 2))
	vt.AddRow("hybrid wall speedup on mesh64-hybrid's configuration", fmt.Sprintf("%.2fx", meshSpeedup),
		fmt.Sprintf(">= %.1fx (CI guard)", e16MeshBar), stats.Mark(meshSpeedup >= e16MeshBar))
	res.Tables = append(res.Tables, vt)
	return res
}
