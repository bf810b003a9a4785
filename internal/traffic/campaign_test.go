package traffic

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testCampaignConfig(seed int64) CampaignConfig {
	return CampaignConfig{
		Base: Config{
			Seed: seed, Nodes: 8, PayloadBytes: 16,
			Warmup: 200, Measure: 800, Drain: 6000,
		},
		Topologies: []Topology{Crossbar, Mesh, Torus, Ring, Tree},
		Patterns:   []Pattern{UniformRandom, Hotspot},
		Rates:      []float64{0.02, 0.08},
	}
}

// TestCampaignSmoke is the worker-pool exerciser CI runs under -race: a
// campaign over all five topologies and two patterns on several workers.
func TestCampaignSmoke(t *testing.T) {
	cfg := testCampaignConfig(21)
	cfg.Workers = 4
	cr := Campaign(cfg)
	if len(cr.Points) != 5*2*2 {
		t.Fatalf("points: %d, want 20", len(cr.Points))
	}
	if len(cr.Curves) != 5*2 {
		t.Fatalf("curves: %d, want 10", len(cr.Curves))
	}
	var total uint64
	for i, p := range cr.Points {
		if p.Latency.Count == 0 {
			t.Fatalf("point %d (%s/%s@%.2f) measured nothing", i, p.Topology, p.Pattern, p.Offered)
		}
		if p.Seed == 0 {
			t.Fatalf("point %d has no recorded seed", i)
		}
		total += uint64(p.Latency.Count)
	}
	// The merged histogram must hold exactly the union of all points.
	var histTotal uint64
	for _, b := range cr.Hist {
		histTotal += b.Count
	}
	if histTotal != total {
		t.Fatalf("merged histogram has %d samples, points measured %d", histTotal, total)
	}
	// Curves are grouped per (topology, pattern): every pair once.
	seen := map[string]bool{}
	for _, c := range cr.Curves {
		seen[c.Topology+"/"+c.Pattern] = true
	}
	if len(seen) != 10 {
		t.Fatalf("curve grouping wrong: %v", seen)
	}
	if cr.Table().Render() == "" {
		t.Fatal("empty campaign table")
	}
}

// TestCampaignParallelMatchesSerial is the determinism contract: the
// same campaign on 1 worker and on many workers produces bit-identical
// per-point results, curves, and merged histograms.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	serial := Campaign(func() CampaignConfig { c := testCampaignConfig(33); c.Workers = 1; return c }())
	parallel := Campaign(func() CampaignConfig { c := testCampaignConfig(33); c.Workers = 8; return c }())
	if !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Fatal("parallel campaign points differ from serial run of the same seeds")
	}
	if !reflect.DeepEqual(serial.Curves, parallel.Curves) {
		t.Fatal("parallel campaign curves differ from serial")
	}
	if !reflect.DeepEqual(serial.Hist, parallel.Hist) {
		t.Fatal("parallel campaign merged histogram differs from serial")
	}
}

// TestCampaignSeedsStable pins the seed-derivation contract: a point's
// seed depends only on the campaign seed and what the point measures,
// so reordering or subsetting the axes never changes it.
func TestCampaignSeedsStable(t *testing.T) {
	full := Campaign(func() CampaignConfig { c := testCampaignConfig(44); c.Workers = 2; return c }())
	sub := testCampaignConfig(44)
	sub.Topologies = []Topology{Ring}
	sub.Workers = 1
	one := Campaign(sub)
	// Ring points sit at topology index 3 in the full enumeration.
	offset := 3 * 2 * 2
	for i, p := range one.Points {
		if full.Points[offset+i].Seed != p.Seed {
			t.Fatalf("seed for point %d changed when other topologies were dropped", i)
		}
		if !reflect.DeepEqual(full.Points[offset+i], p) {
			t.Fatalf("subset campaign point %d differs from full campaign", i)
		}
	}
}

// TestCampaignSpeedup checks the point of the worker pool: with spare
// cores, a parallel campaign beats the serial walk by at least 2x on 4
// cores. Wall-clock ratios are only meaningful on idle hardware, so
// the assertion is skipped in -short, under the race detector, on
// shared CI runners, and on machines without 4 cores — everywhere
// else (a developer box) it guards the parallelism.
func TestCampaignSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short")
	}
	if raceEnabled {
		t.Skip("race-detector scheduling distorts wall-clock ratios")
	}
	if os.Getenv("CI") != "" {
		t.Skip("shared CI runners cannot guarantee idle cores")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to assert speedup, have %d", runtime.NumCPU())
	}
	cfg := testCampaignConfig(55)
	cfg.Base.Measure = 2000
	cfg.Base.Drain = 10000
	elapsed := func(workers int) time.Duration {
		c := cfg
		c.Workers = workers
		start := time.Now()
		Campaign(c)
		return time.Since(start)
	}
	serial := elapsed(1)
	par := elapsed(4)
	if par*2 > serial {
		t.Fatalf("4-worker campaign not >=2x faster: serial %v, parallel %v", serial, par)
	}
}

// mustPanicWith runs f and requires it to panic, on the calling
// goroutine, with a value that mentions want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
			t.Fatalf("recovered %v, want a panic mentioning %q", p, want)
		}
	}()
	f()
}

// TestCampaignPointPanicReachesCaller: a point that panics on a worker
// is raised again on the caller's goroutine once the pool has drained,
// where a recover (nocserver's per-run one) can see it, instead of
// ending the process.
func TestCampaignPointPanicReachesCaller(t *testing.T) {
	mustPanicWith(t, "need at least 2 nodes", func() {
		Campaign(CampaignConfig{Base: Config{Nodes: 1}, Rates: []float64{0.01, 0.02, 0.04}, Workers: 2})
	})
}
