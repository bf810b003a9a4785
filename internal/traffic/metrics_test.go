package traffic

import (
	"bytes"
	"encoding/json"
	"testing"

	"gonoc/internal/obs/metrics"
)

// TestMetricsPassive pins the ISSUE's acceptance criterion: a run with
// the full metrics stack enabled — registry, self-profile, fabric
// collector, wall-clock collection — produces byte-identical seeded
// measurements. Wall stats are the one deliberately nondeterministic
// block, so they are checked for presence and then normalized away
// before the byte comparison.
func TestMetricsPassive(t *testing.T) {
	bare := Run(tinyCfg())

	cfg := tinyCfg()
	cfg.Metrics = *metrics.NewRig()
	cfg.CollectWall = true
	probed := Run(cfg)
	reg, prof := cfg.Metrics.Registry, cfg.Metrics.Profile

	if probed.Wall == nil {
		t.Fatal("CollectWall set but Wall missing")
	}
	if probed.Wall.Events == 0 {
		t.Error("wall stats report zero kernel events")
	}
	if bare.Wall != nil {
		t.Fatal("bare run grew wall stats without CollectWall")
	}
	probed.Wall = nil
	a, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(probed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics perturbed the run:\nbare:    %s\nmetrics: %s", a, b)
	}

	// The live counters must agree with the deterministic result: the
	// collector's flit total is the fabric's, and the profile's cycle
	// total is the run's.
	var liveFlits float64
	reg.Each(func(k string, v float64) {
		if len(k) >= len("noc_fabric_flits_total") && k[:len("noc_fabric_flits_total")] == "noc_fabric_flits_total" {
			liveFlits += v
		}
	})
	if uint64(liveFlits) != probed.FabricFlits {
		t.Errorf("live flit total %g != result fabric flits %d", liveFlits, probed.FabricFlits)
	}
	if prof.Cycles() != probed.Cycles {
		t.Errorf("live cycle total %d != result cycles %d", prof.Cycles(), probed.Cycles)
	}
	if prof.Phase() != metrics.PhaseDone {
		t.Errorf("profile phase = %v after run", prof.Phase())
	}
}

// TestWallStatsDeterministicPart pins which parts of WallStats may be
// compared across runs: Events is deterministic, and the phase
// durations are populated.
func TestWallStatsDeterministicPart(t *testing.T) {
	cfg := tinyCfg()
	cfg.CollectWall = true
	a := Run(cfg)
	b := Run(cfg)
	if a.Wall == nil || b.Wall == nil {
		t.Fatal("wall stats missing")
	}
	if a.Wall.Events != b.Wall.Events || a.Wall.Events == 0 {
		t.Fatalf("wall Events not deterministic: %d vs %d", a.Wall.Events, b.Wall.Events)
	}
	if a.Wall.TotalMS <= 0 || a.Wall.EventsPerSec <= 0 {
		t.Fatalf("degenerate wall stats: %+v", a.Wall)
	}
}

// TestBackpressureCounter pins the injection-backpressure signal: a
// saturating hotspot run must observe it, it must be deterministic,
// and the live metrics counter must equal the result field after the
// final publish.
func TestBackpressureCounter(t *testing.T) {
	cfg := tinyCfg()
	cfg.Pattern = Hotspot
	cfg.HotFrac = 0.9
	cfg.Rate = 0.4
	a := Run(cfg)
	if a.InjectBackpressure == 0 {
		t.Fatal("saturating hotspot run observed no injection backpressure")
	}

	reg := metrics.NewRegistry()
	cfg2 := cfg
	cfg2.Metrics.Registry = reg
	b := Run(cfg2)
	if b.InjectBackpressure != a.InjectBackpressure {
		t.Fatalf("backpressure not deterministic: %d vs %d", b.InjectBackpressure, a.InjectBackpressure)
	}
	if got := reg.Counter("noc_traffic_backpressure_total", "").Value(); got != b.InjectBackpressure {
		t.Fatalf("live backpressure counter %d != result %d", got, b.InjectBackpressure)
	}
}

// TestCampaignProgressAndWall pins the campaign-side progress plumbing:
// OnPoint fires once per point with a monotonic Done counter, Progress
// tracks totals, and the campaign wall digest aggregates the points.
func TestCampaignProgressAndWall(t *testing.T) {
	base := tinyCfg()
	base.CollectWall = true
	base.Metrics.Progress = metrics.NewProgress(metrics.NewRegistry())
	var calls []PointDone
	ccfg := CampaignConfig{
		Base:       base,
		Topologies: []Topology{Crossbar, Mesh},
		Patterns:   []Pattern{UniformRandom},
		Rates:      []float64{0.02, 0.05},
		Workers:    2,
		OnPoint:    func(pd PointDone) { calls = append(calls, pd) },
	}
	cr := Campaign(ccfg)
	if len(cr.Points) != 4 || len(calls) != 4 {
		t.Fatalf("%d points, %d OnPoint calls", len(cr.Points), len(calls))
	}
	seen := map[int]bool{}
	for i, pd := range calls {
		if pd.Done != i+1 || pd.Total != 4 {
			t.Errorf("call %d: Done/Total = %d/%d", i, pd.Done, pd.Total)
		}
		if pd.Label == "" || pd.Offered == 0 {
			t.Errorf("call %d underpopulated: %+v", i, pd)
		}
		if seen[pd.Index] {
			t.Errorf("point index %d reported twice", pd.Index)
		}
		seen[pd.Index] = true
	}
	ps := base.Metrics.Progress.Snapshot()
	if ps.PointsTotal != 4 || ps.PointsDone != 4 || ps.WorkersBusy != 0 {
		t.Fatalf("progress snapshot = %+v", ps)
	}
	if cr.Wall == nil || cr.Wall.Events == 0 {
		t.Fatalf("campaign wall digest = %+v", cr.Wall)
	}
	var sum uint64
	for _, p := range cr.Points {
		if p.Wall == nil {
			t.Fatal("point missing wall stats despite Base.CollectWall")
		}
		sum += p.Wall.Events
	}
	if cr.Wall.Events != sum {
		t.Fatalf("campaign events %d != point sum %d", cr.Wall.Events, sum)
	}
}

// TestSweepProgress pins the sweep-side callback ordering.
func TestSweepProgress(t *testing.T) {
	var labels []string
	sr := Sweep(tinyCfg(), []float64{0.02, 0.05}, func(pd PointDone) {
		labels = append(labels, pd.Label)
		if pd.Total != 2 || pd.Done != pd.Index+1 {
			t.Errorf("bad progress bookkeeping: %+v", pd)
		}
	})
	if len(sr.Points) != 2 || len(labels) != 2 {
		t.Fatalf("%d points, %d callbacks", len(sr.Points), len(labels))
	}
	if labels[0] != "mesh/uniform@0.02" || labels[1] != "mesh/uniform@0.05" {
		t.Fatalf("labels = %v", labels)
	}
	// The callback must not change the sweep.
	plain := Sweep(tinyCfg(), []float64{0.02, 0.05}, nil)
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(sr)
	if !bytes.Equal(a, b) {
		t.Fatal("progress callback changed sweep results")
	}
}
