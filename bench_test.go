// Package gonoc_test holds the repository-level benchmark harness: one
// benchmark per experiment table/figure (E1–E16; see README.md).
// Each benchmark runs the corresponding experiment end to end and reports
// the headline simulated-cycle metrics alongside wall-clock ns/op, so
// `go test -bench=. -benchmem` regenerates every result.
package gonoc_test

import (
	"sort"
	"testing"

	"gonoc/internal/experiments"
	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// BenchmarkFig1MixedNoC is E1's load half: the full seven-socket mixed
// SoC on the layered NoC (Fig 1), self-checking workload.
func BenchmarkFig1MixedNoC(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		s := soc.BuildNoC(soc.Config{Seed: int64(i + 1), RequestsPerMaster: 10})
		c, err := s.Run(5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkFig2BridgedBus is E2's baseline: the same IP set on the
// bridged reference bus (Fig 2).
func BenchmarkFig2BridgedBus(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		s := soc.BuildBus(soc.Config{Seed: int64(i + 1), RequestsPerMaster: 10})
		c, err := s.Run(20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkE1CompatibilityMatrix regenerates the feature matrix.
func BenchmarkE1CompatibilityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E1CompatibilityMatrix(int64(i + 1))
		if len(tbl.Rows()) != 7 {
			b.Fatal("matrix incomplete")
		}
	}
}

// BenchmarkE3SwitchingMode regenerates the wormhole-vs-SAF invisibility
// result, per mode.
func BenchmarkE3SwitchingMode(b *testing.B) {
	for _, mode := range []transport.SwitchingMode{transport.Wormhole, transport.StoreAndForward} {
		b.Run(mode.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := soc.Config{Seed: 3, RequestsPerMaster: 10}
				cfg.Net.Mode = mode
				cfg.Net.BufDepth = 64
				s := soc.BuildNoC(cfg)
				c, err := s.Run(5_000_000)
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkE4Ordering regenerates the three-ordering-models table.
func BenchmarkE4Ordering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E4Ordering(int64(i + 1))
		if len(tbl.Rows()) != 3 {
			b.Fatal("ordering table incomplete")
		}
	}
}

// BenchmarkE5GateCount regenerates the NIU gate-scaling table.
func BenchmarkE5GateCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E5GateScaling()
		if len(tbl.Rows()) != 7 {
			b.Fatal("gate table incomplete")
		}
	}
}

// BenchmarkE6Exclusive regenerates the LOCK-vs-exclusive-service
// interference measurement and reports the throughput split.
func BenchmarkE6Exclusive(b *testing.B) {
	var res experiments.E6Result
	for i := 0; i < b.N; i++ {
		res = experiments.E6ExclusiveVsLock(int64(i + 1))
	}
	b.ReportMetric(res.BaselineTput, "bg-base/kcyc")
	b.ReportMetric(res.LockTput, "bg-lock/kcyc")
	b.ReportMetric(res.ExclTput, "bg-excl/kcyc")
}

// BenchmarkE7QoS regenerates the per-priority latency table and reports
// the urgent-class advantage.
func BenchmarkE7QoS(b *testing.B) {
	var res experiments.E7Result
	for i := 0; i < b.N; i++ {
		res = experiments.E7QoS(int64(i + 1))
	}
	b.ReportMetric(res.MeanLatency[true][noctypes.PrioUrgent], "urgent-lat-cyc")
	b.ReportMetric(res.MeanLatency[true][noctypes.PrioLow], "low-lat-cyc")
}

// BenchmarkE8Physical regenerates the bandwidth/CDC series and reports
// full-width link throughput.
func BenchmarkE8Physical(b *testing.B) {
	var res experiments.E8Result
	for i := 0; i < b.N; i++ {
		res = experiments.E8Physical()
	}
	b.ReportMetric(res.FlitsPerKCycle[8], "flits/kcyc@w8")
	b.ReportMetric(res.FlitsPerKCycle[1], "flits/kcyc@w1")
}

// BenchmarkE9ServiceAblation regenerates the exclusive-service ablation.
func BenchmarkE9ServiceAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E9ServiceAblation(int64(i + 1))
		if len(tbl.Rows()) != 2 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkFabricPacketRate measures raw simulator speed under load:
// packets moved through the Fig-1 SoC's mesh per op, where one op is 100
// fabric cycles and every master socket keeps two 64-byte reads in
// flight through its NIU, rotating over the four memories.
func BenchmarkFabricPacketRate(b *testing.B) {
	s := soc.BuildNoC(soc.Config{Seed: 1, Quiet: true, Topology: soc.Mesh})
	issuers := s.Issuers()
	names := make([]string, 0, len(issuers))
	for name := range issuers {
		names = append(names, name)
	}
	sort.Strings(names) // registration order fixes the simulated schedule
	bases := []uint64{soc.BaseAXIMem, soc.BaseOCPMem, soc.BaseAHBMem, soc.BaseBVCIMem}
	for i, name := range names {
		issue, lane := issuers[name], uint64(0x60000+i*0x4000)
		inflight, k := 0, 0
		s.Clk.Register(sim.ClockedFunc{OnEval: func(int64) {
			if inflight >= 2 {
				return
			}
			addr := bases[k%len(bases)] + lane + uint64(k*64%0x4000)
			k++
			inflight++
			issue(false, addr, 64, func(bool) { inflight-- })
		}})
	}
	s.Clk.RunCycles(200) // reach steady state before timing
	start := s.Net.Injected()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Clk.RunCycles(100)
	}
	b.StopTimer()
	pkts := s.Net.Injected() - start
	if pkts == 0 {
		b.Fatal("no packet injected in the timed loop")
	}
	b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
}

// BenchmarkE10TrafficSweep runs the latency-vs-offered-load sweeps and
// reports the measured saturation throughputs as benchmark metrics.
func BenchmarkE10TrafficSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E10TrafficSweep(int64(i + 1))
		if r.MeshSatTput >= r.CrossbarSatTput {
			b.Fatal("mesh did not saturate below crossbar")
		}
		b.ReportMetric(r.CrossbarSatTput, "xbar-sat-tput")
		b.ReportMetric(r.MeshSatTput, "mesh-sat-tput")
	}
}

// BenchmarkTrafficUniformMesh measures the traffic engine itself: one
// open-loop uniform-random run on a 4x4 mesh per iteration.
func BenchmarkTrafficUniformMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := traffic.Run(traffic.Config{
			Seed: int64(i + 1), Nodes: 16, Topology: traffic.Mesh,
			Pattern: traffic.UniformRandom, Rate: 0.05,
			Warmup: 300, Measure: 1500, Drain: 8000,
		})
		if res.Latency.Count == 0 {
			b.Fatal("no transactions measured")
		}
	}
}

// BenchmarkE11Wishbone regenerates the Wishbone-adapter comparison and
// reports the burst-mode latencies.
func BenchmarkE11Wishbone(b *testing.B) {
	var res experiments.E11Result
	for i := 0; i < b.N; i++ {
		res = experiments.E11WishboneAdapter(int64(i + 1))
		if len(res.Tables) != 3 {
			b.Fatal("wishbone comparison incomplete")
		}
	}
	b.ReportMetric(res.ClassicReadLat, "wb-classic-lat")
	b.ReportMetric(res.RegFeedbackReadLat, "wb-regfb-lat")
}

// BenchmarkE12TopologyCampaign runs the cross-topology campaign (all
// five fabrics, uniform and hotspot, shared rate schedule) and reports
// the headline saturation throughputs.
func BenchmarkE12TopologyCampaign(b *testing.B) {
	var res experiments.E12Result
	for i := 0; i < b.N; i++ {
		res = experiments.E12TopologyCampaign(int64(i + 1))
		if len(res.Campaign.Points) != 40 {
			b.Fatal("campaign incomplete")
		}
	}
	b.ReportMetric(res.SatTput["uniform"]["torus"], "torus-sat-tput")
	b.ReportMetric(res.SatTput["uniform"]["ring"], "ring-sat-tput")
	b.ReportMetric(res.SatTput["uniform"]["tree"], "tree-sat-tput")
}

// BenchmarkE13CongestionHeatmap runs the instrumented hotspot-saturation
// pair (mesh and torus with the link heatmap attached) and reports the
// bottleneck-link utilization the tables are built from.
func BenchmarkE13CongestionHeatmap(b *testing.B) {
	var res experiments.E13Result
	for i := 0; i < b.N; i++ {
		res = experiments.E13CongestionHeatmap(int64(i + 1))
		if len(res.Heatmaps) != 2 {
			b.Fatal("heatmaps incomplete")
		}
	}
	b.ReportMetric(res.Heatmaps[0].Hottest(1)[0].Utilization, "mesh-hot-util")
	b.ReportMetric(res.Heatmaps[1].Hottest(1)[0].Utilization, "torus-hot-util")
}

// BenchmarkTrafficCampaignParallel measures the campaign runner itself:
// the E12-sized point set on the full worker pool, wall-clock per
// campaign.
func BenchmarkTrafficCampaignParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cr := traffic.Campaign(traffic.CampaignConfig{
			Base: traffic.Config{
				Seed: int64(i + 1), Nodes: 16, PayloadBytes: 32,
				Warmup: 300, Measure: 1500, Drain: 10000,
			},
			Topologies: []traffic.Topology{traffic.Crossbar, traffic.Mesh, traffic.Torus, traffic.Ring, traffic.Tree},
			Patterns:   []traffic.Pattern{traffic.UniformRandom, traffic.Hotspot},
			Rates:      []float64{0.02, 0.06, 0.12, 0.20},
		})
		if len(cr.Points) != 40 {
			b.Fatal("campaign incomplete")
		}
	}
}

// BenchmarkFig1MixedNoCWishbone is the Fig-1 mixed SoC with the
// Wishbone IP and memory added — the eight-socket system the adapter
// refactor makes a configuration flag instead of a new NIU.
func BenchmarkFig1MixedNoCWishbone(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		s := soc.BuildNoC(soc.Config{Seed: int64(i + 1), RequestsPerMaster: 10, Wishbone: true})
		c, err := s.Run(5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkE14Scenarios resolves and runs every built-in declarative
// scenario (internal/scenario) through the same resolver the CLIs use,
// including the bit-identical re-run check.
func BenchmarkE14Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E14Scenarios(int64(i + 1))
		if len(r.Reports) < 6 {
			b.Fatal("scenario registry incomplete")
		}
	}
}

// BenchmarkE15SelfProfile runs the hotspot-dram sweep with the full
// live-metrics stack attached and checks the observer invariants: the
// instrumented results stay byte-identical and the per-router counters
// conserve flits.
func BenchmarkE15SelfProfile(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		r := experiments.E15SelfProfile(int64(i + 1))
		if !r.Identical {
			b.Fatal("metrics perturbed the sweep")
		}
		events = 0
		for _, p := range r.Sweep.Points {
			events += p.Wall.Events
		}
	}
	b.ReportMetric(float64(events), "simevents")
}

// BenchmarkE16FidelitySweep runs the hybrid-fidelity error-bound
// harness: the operating-envelope sweep must stay inside the declared
// tolerances (mean/p50/p99 latency 5%, throughput 1%) against
// cycle-accurate ground truth, and the measured speedup is reported as
// a benchmark metric.
func BenchmarkE16FidelitySweep(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := experiments.E16FidelitySweep(int64(i + 1))
		if !r.Pass {
			b.Fatalf("hybrid fidelity out of tolerance: maxP99Err=%.4f maxTputErr=%.4f", r.MaxP99Err, r.MaxTputErr)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "hybrid-speedup-x")
}
