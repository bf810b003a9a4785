package metrics_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/traffic"
)

// TestServeMetricsMidRun is the ISSUE's HTTP smoke test: start the
// metrics server, launch a real (seeded) traffic run with the full
// stack attached, scrape /metrics and /progress while the simulation
// is executing, and check the final scrape agrees with the run's own
// deterministic result.
func TestServeMetricsMidRun(t *testing.T) {
	rig := metrics.NewRig()
	prof, prog := rig.Profile, rig.Progress
	srv := metrics.NewServer(rig.Registry, prof, prog)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	cfg := traffic.Config{
		Seed: 7, Nodes: 16, Topology: traffic.Mesh,
		Pattern: traffic.UniformRandom, Rate: 0.1, PayloadBytes: 16,
		Warmup: -1, Measure: 60000, Drain: 2000,
		Metrics: *rig,
	}
	prog.SetTotal(1)
	prog.PointStart()
	done := make(chan traffic.Result, 1)
	go func() { done <- traffic.Run(cfg) }()

	// Poll /progress until the simulation is visibly moving (or
	// finished — on a fast machine the run may beat the first poll, in
	// which case the mid-run scrape degrades to a post-run scrape).
	var doc struct {
		Phase     string `json:"phase"`
		SimCycles int64  `json:"sim_cycles"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for doc.SimCycles == 0 {
		if time.Now().After(deadline) {
			t.Fatal("simulation published no cycles within 10s")
		}
		resp, err := http.Get(base + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/progress status %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/progress not JSON: %v\n%s", err, body)
		}
	}
	if doc.Phase == "" || doc.Phase == "unknown" {
		t.Errorf("/progress phase = %q", doc.Phase)
	}

	// Scrape /metrics concurrently with the running simulation.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	expo := string(body)
	for _, want := range []string{
		"# TYPE noc_sim_cycles_total counter",
		"# TYPE noc_fabric_flits_total counter",
		"noc_traffic_backpressure_total",
		"noc_sim_cycles_per_sec",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("mid-run exposition missing %q", want)
		}
	}

	res := <-done
	prog.PointDone("mesh/uniform@0.1", 1)

	// Post-run, the live totals must equal the deterministic result.
	if got := prof.Cycles(); got != res.Cycles {
		t.Errorf("final live cycles %d != result cycles %d", got, res.Cycles)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "noc_points_done 1\n") {
		t.Error("final exposition missing completed point count")
	}
}
