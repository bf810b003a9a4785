package traffic

import (
	"strings"
	"testing"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/soc"
	"gonoc/internal/transport"
)

func TestTransLoadThroughNIUs(t *testing.T) {
	res := RunTrans(TransConfig{
		Seed: 1, Rate: 0.1, Window: 2,
		Warmup: 300, Measure: 2500, Drain: 60000,
	})
	if len(res.PerMaster) != 7 {
		t.Fatalf("masters: %d", len(res.PerMaster))
	}
	for _, m := range res.PerMaster {
		if m.Issued == 0 || m.Done == 0 {
			t.Errorf("%s: issued=%d done=%d", m.Master, m.Issued, m.Done)
		}
		if m.Errors != 0 {
			t.Errorf("%s: %d protocol errors", m.Master, m.Errors)
		}
		if m.Latency.Count > 0 && m.Latency.Mean <= 0 {
			t.Errorf("%s: no latency", m.Master)
		}
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d transactions stuck after drain", res.Incomplete)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput measured")
	}
	out := res.Table().Render()
	if !strings.Contains(out, "axi") || !strings.Contains(out, "prop") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestTransHotspotConcentratesLoad(t *testing.T) {
	spread := RunTrans(TransConfig{
		Seed: 2, Rate: 0.25, Window: 2, Warmup: 300, Measure: 2500, Drain: 60000,
	})
	hot := RunTrans(TransConfig{
		Seed: 2, Rate: 0.25, Window: 2, Hotspot: true,
		Warmup: 300, Measure: 2500, Drain: 60000,
	})
	mean := func(r TransResult) float64 {
		var sum float64
		var n int
		for _, m := range r.PerMaster {
			if m.Latency.Count > 0 {
				sum += m.Latency.Mean * float64(m.Latency.Count)
				n += m.Latency.Count
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	ms, mh := mean(spread), mean(hot)
	if ms <= 0 || mh <= 0 {
		t.Fatalf("missing latencies: spread=%.1f hot=%.1f", ms, mh)
	}
	// Funneling all seven masters into one slave NIU must cost latency.
	if mh <= ms {
		t.Fatalf("hotspot mean %.1f not above spread mean %.1f", mh, ms)
	}
}

func TestTransWishbone(t *testing.T) {
	tr := RunTrans(TransConfig{Seed: 3, Rate: 0.1, Warmup: 100, Measure: 800, Wishbone: true})
	found := false
	for _, m := range tr.PerMaster {
		if m.Master == "wb" {
			found = true
			if m.Done == 0 || m.Errors != 0 {
				t.Fatalf("wb master digest: %+v", m)
			}
		}
	}
	if !found {
		t.Fatal("wb master missing from transaction-level digest")
	}
	if tr.Incomplete != 0 {
		t.Fatalf("%d transactions stuck at drain", tr.Incomplete)
	}
}

// TestTransDrainCapIsExact pins the drain cap: a run whose transactions
// outlast it simulates exactly Drain cycles of drain, as the packet
// rig does, not the cap rounded up to the 64-cycle completion check.
func TestTransDrainCapIsExact(t *testing.T) {
	const measure = 200
	for _, drain := range []int64{1, 10, 63, 64, 65} {
		prof := metrics.NewSimProfile(metrics.NewRegistry())
		res := RunTrans(TransConfig{
			Seed: 1, Rate: 1, Window: 4, Bytes: 64,
			Warmup: -1, Measure: measure, Drain: drain, Metrics: metrics.Rig{Profile: prof},
		})
		if res.Incomplete == 0 {
			t.Fatalf("drain %d: every transaction finished; the cap never bound", drain)
		}
		if got := prof.Cycles() - measure; got != drain {
			t.Errorf("drain cap %d simulated %d drain cycles", drain, got)
		}
	}
}

// TestTransSAFLaneDepth pins that a store-and-forward RunTrans given no
// lane depth builds its SoC with soc.LaneDepth's 64-flit lanes.
func TestTransSAFLaneDepth(t *testing.T) {
	tc := TransConfig{Seed: 1, Warmup: -1, Measure: 10, Drain: 10}
	tc.Net.Mode = transport.StoreAndForward
	var depth int
	runTrans(tc, func(s *soc.System) { depth = s.Net.Config().BufDepth })
	if depth != 64 {
		t.Fatalf("SAF run with no depth built %d-flit lanes, want 64", depth)
	}
}
