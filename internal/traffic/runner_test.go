package traffic

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

func TestLowLoadUniformCrossbar(t *testing.T) {
	res := Run(Config{
		Seed: 1, Nodes: 8, Pattern: UniformRandom, Rate: 0.02,
		Warmup: 500, Measure: 2000, Drain: 20000,
	})
	if res.Latency.Count == 0 {
		t.Fatal("no measured transactions completed")
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d measured transactions never completed", res.Incomplete)
	}
	if res.Saturated {
		t.Fatalf("2%% load reported saturated: %+v", res)
	}
	// Zero-load-ish latency on a crossbar: a handful of cycles per
	// direction, far below 100.
	if res.Latency.Mean <= 0 || res.Latency.Mean > 100 {
		t.Fatalf("implausible low-load latency %.1f", res.Latency.Mean)
	}
	// Bernoulli(0.02) generation should land near the offered rate.
	if res.GenRate < 0.012 || res.GenRate > 0.03 {
		t.Fatalf("generation rate %.4f far from offered 0.02", res.GenRate)
	}
	if res.NetLatency.Count == 0 || res.AvgHops <= 0 {
		t.Fatalf("fabric-side stats missing: %+v", res.NetLatency)
	}
	if len(res.Hist) == 0 || len(res.Flows) == 0 {
		t.Fatal("histogram or per-flow digests missing")
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	base := Config{Seed: 5, Nodes: 16, Pattern: UniformRandom,
		Warmup: 500, Measure: 2500, Drain: 20000}
	lo := base
	lo.Rate = 0.02
	hi := base
	hi.Rate = 0.10
	rl := Run(lo)
	rh := Run(hi)
	if rl.Latency.Mean >= rh.Latency.Mean {
		t.Fatalf("latency did not rise with load: %.1f @0.02 vs %.1f @0.10",
			rl.Latency.Mean, rh.Latency.Mean)
	}
	if rh.Throughput <= rl.Throughput {
		t.Fatalf("throughput did not rise with load below saturation: %.4f vs %.4f",
			rl.Throughput, rh.Throughput)
	}
}

func TestOverloadSaturates(t *testing.T) {
	res := Run(Config{
		Seed: 2, Nodes: 8, Pattern: UniformRandom, Rate: 0.5,
		Warmup: 300, Measure: 1500, Drain: 4000,
	})
	if !res.Saturated {
		t.Fatalf("50%% injection on a crossbar must saturate: tput=%.4f gen=%.4f",
			res.Throughput, res.GenRate)
	}
	// Accepted throughput must be visibly below the generated load.
	if res.Throughput >= res.GenRate {
		t.Fatalf("throughput %.4f not below generation %.4f", res.Throughput, res.GenRate)
	}
}

func TestClosedLoopWindow(t *testing.T) {
	res := Run(Config{
		Seed: 3, Nodes: 8, Pattern: UniformRandom, ClosedLoop: true, Window: 2,
		Warmup: 500, Measure: 2000, Drain: 20000,
	})
	if res.Latency.Count == 0 || res.Throughput <= 0 {
		t.Fatalf("closed loop produced nothing: %+v", res)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d transactions stuck after drain", res.Incomplete)
	}
	if !res.ClosedLoop || res.Offered != 0 {
		t.Fatalf("closed-loop labeling wrong: %+v", res)
	}
}

func TestMeshTransposeRuns(t *testing.T) {
	res := Run(Config{
		Seed: 4, Nodes: 16, Topology: Mesh, Pattern: Transpose, Rate: 0.04,
		Warmup: 500, Measure: 2000, Drain: 25000,
	})
	if res.Latency.Count == 0 || res.Incomplete != 0 {
		t.Fatalf("transpose on mesh: count=%d incomplete=%d", res.Latency.Count, res.Incomplete)
	}
	// Off-diagonal sources must honor the transpose mapping: node 6
	// (x=2,y=1) only ever sends to node 9.
	for _, f := range res.Flows {
		if f.Src == 6 && f.Dst != 9 {
			t.Fatalf("transpose flow violated: 6 -> %d", f.Dst)
		}
	}
	if res.AvgHops <= 1 {
		t.Fatalf("mesh average hops %.2f implausible", res.AvgHops)
	}
}

func TestStoreAndForwardAutoBuffers(t *testing.T) {
	// SAF with big payloads must not panic on BufDepth: withDefaults
	// bumps switch buffers to hold the largest packet.
	cfg := Config{
		Seed: 6, Nodes: 8, Pattern: UniformRandom, Rate: 0.02, PayloadBytes: 128,
		Warmup: 300, Measure: 1000, Drain: 20000,
	}
	cfg.Net.Mode = transport.StoreAndForward
	res := Run(cfg)
	if res.Latency.Count == 0 || res.Incomplete != 0 {
		t.Fatalf("SAF run failed: %+v", res)
	}
}

// TestWallEventsAreCycles pins that a one-clock run's wall block counts
// one kernel step per simulated cycle.
func TestWallEventsAreCycles(t *testing.T) {
	res := Run(Config{Seed: 2, Nodes: 8, Rate: 0.05, Warmup: 100, Measure: 400, Drain: 2000, CollectWall: true})
	if res.Wall == nil || res.Wall.Events != uint64(res.Cycles) {
		t.Fatalf("wall block %+v for a %d-cycle run", res.Wall, res.Cycles)
	}
}

func TestHotspotSlowerThanUniform(t *testing.T) {
	base := Config{Seed: 7, Nodes: 16, Rate: 0.06,
		Warmup: 500, Measure: 2500, Drain: 12000}
	uni := base
	uni.Pattern = UniformRandom
	hot := base
	hot.Pattern = Hotspot
	hot.HotFrac = 0.8
	ru := Run(uni)
	rh := Run(hot)
	// Concentrating 80% of traffic on one ejection port must hurt.
	if rh.Latency.Mean <= ru.Latency.Mean {
		t.Fatalf("hotspot (%.1f) not slower than uniform (%.1f)",
			rh.Latency.Mean, ru.Latency.Mean)
	}
}

// flowStatsByMap is the per-flow digest as a map of stats.Latency
// recorders builds it: the reference for flowStats.
func flowStatsByMap(m map[[2]int]*stats.Latency) []FlowStat {
	out := make([]FlowStat, 0, len(m))
	for fl, l := range m {
		out = append(out, FlowStat{Src: fl[0], Dst: fl[1], Count: l.Count(), Mean: l.Mean(), P95: l.Percentile(95)})
	}
	slices.SortFunc(out, func(a, b FlowStat) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return out
}

// TestFlowStatsMatchLatencyMap records random completions into
// per-source logs and into a map of stats.Latency recorders, and
// requires the same digests from both, in the same order, encoded the
// same way — "[]" when nothing completed.
func TestFlowStatsMatchLatencyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		nodes := 2 + rng.Intn(70)
		logs := make([]flowLog, nodes)
		ref := map[[2]int]*stats.Latency{} // by (src, dst)
		maxLat := int64(1) << (1 + rng.Intn(40))
		completions := []int{0, 1, 50, 3000, 20000}[trial%5]
		for i := 0; i < completions; i++ {
			src, dst, lat := rng.Intn(nodes), rng.Intn(nodes), rng.Int63n(maxLat)
			if trial%3 == 0 {
				dst = min(dst, 2) // few flows, many samples each
			}
			logs[src].add(dst, lat)
			fl := [2]int{src, dst}
			if ref[fl] == nil {
				ref[fl] = &stats.Latency{}
			}
			ref[fl].Record(lat)
		}
		got, want := flowStats(logs), flowStatsByMap(ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d nodes, %d completions): flowStats differs from the map digest", trial, nodes, completions)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("trial %d: encodes as %.60s, map digest as %.60s", trial, gj, wj)
		}
	}
}
