package experiments

import (
	"fmt"

	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// E10Result carries the measured curves so tests and benchmarks can
// assert shape.
type E10Result struct {
	Tables []*stats.Table
	// Saturation throughput (transactions/node/cycle) per topology for
	// uniform-random traffic at equal injection rates.
	CrossbarSatTput float64
	MeshSatTput     float64
	// Mean latency at a common sub-saturation rate per switching mode.
	WormholeMeanLat float64
	SAFMeanLat      float64
}

// e10Rates is the shared injection-rate schedule: both fabrics see the
// exact same offered loads, so the curves are directly comparable.
var e10Rates = []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.18}

// E10TrafficSweep walks synthetic uniform-random load over a 16-node
// crossbar and a 4x4 mesh — the latency-vs-offered-load methodology —
// and contrasts wormhole against store-and-forward switching at a fixed
// sub-saturation rate. The headline shape: a single-switch crossbar
// sustains more uniform traffic than a mesh of the same size, whose
// bisection saturates first; and SAF pays per-hop serialization latency
// that wormhole hides.
func E10TrafficSweep(seed int64) E10Result {
	base := traffic.Config{
		Seed: seed, Nodes: 16, Pattern: traffic.UniformRandom,
		PayloadBytes: 32, Warmup: 500, Measure: 2500, Drain: 12000,
	}

	xb := base
	xb.Topology = traffic.Crossbar
	ms := base
	ms.Topology = traffic.Mesh
	sx := traffic.Sweep(xb, e10Rates, nil)
	sm := traffic.Sweep(ms, e10Rates, nil)

	curve := stats.NewTable("E10 — latency vs offered load: crossbar vs 4x4 mesh (uniform random)",
		"offered", "xbar tput", "xbar mean lat", "xbar p95", "xbar sat",
		"mesh tput", "mesh mean lat", "mesh p95", "mesh sat")
	for i := range sx.Points {
		px, pm := sx.Points[i], sm.Points[i]
		curve.AddRow(px.Offered,
			px.Throughput, px.Latency.Mean, px.Latency.P95, stats.Mark(px.Saturated),
			pm.Throughput, pm.Latency.Mean, pm.Latency.P95, stats.Mark(pm.Saturated))
	}

	sat := stats.NewTable("E10 — saturation summary",
		"topology", "last unsaturated rate", "saturation tput (txn/node/cyc)")
	sat.AddRow("crossbar", sx.SatRate, sx.SatThroughput)
	sat.AddRow("mesh 4x4", sm.SatRate, sm.SatThroughput)

	// Switching-mode contrast at a common sub-saturation rate on the
	// mesh: transaction results are identical (E3); here the latency
	// cost of store-and-forward becomes visible under real load.
	modeTbl := stats.NewTable("E10 — switching mode under load (mesh, uniform, rate 0.05)",
		"mode", "mean lat", "p95", "tput", "avg hops")
	var modeLat [2]float64
	for i, mode := range []transport.SwitchingMode{transport.Wormhole, transport.StoreAndForward} {
		c := ms
		c.Rate = 0.05
		c.Net.Mode = mode
		r := traffic.Run(c)
		modeLat[i] = r.Latency.Mean
		name := "wormhole"
		if mode == transport.StoreAndForward {
			name = "store-and-forward"
		}
		modeTbl.AddRow(name, r.Latency.Mean, r.Latency.P95, fmt.Sprintf("%.4f", r.Throughput), r.AvgHops)
	}

	return E10Result{
		Tables:          []*stats.Table{curve, sat, modeTbl},
		CrossbarSatTput: sx.SatThroughput,
		MeshSatTput:     sm.SatThroughput,
		WormholeMeanLat: modeLat[0],
		SAFMeanLat:      modeLat[1],
	}
}
