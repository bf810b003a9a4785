// Package gonoc_test holds the repository-level benchmarks that build
// their own runs: the Fig-1 SoC (with and without WISHBONE) and the
// Fig-2 bus, E3's two switching modes, the packet rate through the mesh
// SoC, one open-loop traffic run and the campaign worker pool. Each
// reports its headline simulated metric beside wall-clock ns/op. The
// experiment tables (E1–E16) have no wrappers here: cmd/nocbench runs
// any of them, e.g. `go run ./cmd/nocbench -only E5`
// (docs/EXPERIMENTS.md).
package gonoc_test

import (
	"sort"
	"testing"

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
