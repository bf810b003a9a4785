package traffic

import (
	"strings"
	"testing"
)

func TestSweepSaturatingCurve(t *testing.T) {
	cfg := Config{Seed: 9, Nodes: 8, Pattern: UniformRandom,
		Warmup: 300, Measure: 1500, Drain: 6000}
	rates := []float64{0.02, 0.06, 0.30}
	sr := Sweep(cfg, rates, nil)
	if len(sr.Points) != 3 {
		t.Fatalf("points: %d", len(sr.Points))
	}
	// Latency must not decrease along the curve, and the overload point
	// must be flagged saturated.
	for i := 1; i < len(sr.Points); i++ {
		if sr.Points[i].Latency.Mean < sr.Points[i-1].Latency.Mean {
			t.Fatalf("latency dipped: %.1f @%.2f after %.1f @%.2f",
				sr.Points[i].Latency.Mean, rates[i],
				sr.Points[i-1].Latency.Mean, rates[i-1])
		}
	}
	last := sr.Points[len(sr.Points)-1]
	if !last.Saturated {
		t.Fatalf("0.30 offered not saturated: %+v", last)
	}
	if sr.Points[0].Saturated {
		t.Fatalf("0.02 offered saturated: %+v", sr.Points[0])
	}
	if sr.SatRate < 0.02 || sr.SatRate >= 0.30 {
		t.Fatalf("SatRate = %.3f", sr.SatRate)
	}
	if sr.SatThroughput < last.Throughput {
		t.Fatalf("SatThroughput %.4f below a measured point %.4f",
			sr.SatThroughput, last.Throughput)
	}
	// Table must render one row per point.
	out := sr.Table().Render()
	if strings.Count(out, "\n") < 5 || !strings.Contains(out, "offered") {
		t.Fatalf("sweep table:\n%s", out)
	}
	// Sweep points drop per-flow digests to stay compact.
	for _, p := range sr.Points {
		if p.Flows != nil {
			t.Fatal("sweep point retains flow digests")
		}
	}
}

func TestSweepDefaultRates(t *testing.T) {
	rates := DefaultRates()
	if len(rates) < 5 {
		t.Fatalf("default schedule too short: %v", rates)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("default rates not increasing: %v", rates)
		}
	}
}

// TestSweepPointPanicReachesCaller: the sweep's one worker hands a
// point's panic back to the caller as the campaign's pool does.
func TestSweepPointPanicReachesCaller(t *testing.T) {
	mustPanicWith(t, "need at least 2 nodes", func() {
		Sweep(Config{Nodes: 1}, []float64{0.01, 0.02}, nil)
	})
}
