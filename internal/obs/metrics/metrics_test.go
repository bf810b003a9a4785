package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGetOrCreate pins the registration contract: same name+labels is
// the same handle, different labels are distinct, label order does not
// matter, and a type clash panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help", L("x", "1"), L("y", "2"))
	b := r.Counter("c", "help", L("y", "2"), L("x", "1"))
	if a != b {
		t.Error("label order changed handle identity")
	}
	if c := r.Counter("c", "help", L("x", "2")); c == a {
		t.Error("different labels returned same handle")
	}
	if g1, g2 := r.Gauge("g", ""), r.Gauge("g", ""); g1 != g2 {
		t.Error("gauge get-or-create returned distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Error("type clash did not panic")
		}
	}()
	r.Gauge("c", "help")
}

// TestNilHandlesAreFreeAndAllocFree pins the disabled-registry
// invariant the ISSUE's acceptance criteria call out: every operation
// on nil handles (what a nil *Registry hands out) is a no-op that
// performs zero allocations.
func TestNilHandlesAreFreeAndAllocFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", []int64{1, 2})
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live handles")
	}
	var prof *SimProfile
	var prog *Progress
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		_ = c.Value()
		g.Set(1)
		g.Add(2)
		_ = g.Value()
		h.Observe(5)
		prof.Advance(64)
		prof.SetPhase(PhaseMeasure)
		prog.PointStart()
		prog.PointDone("x", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics allocated %.1f/op, want 0", allocs)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIncrements hammers shared handles from several
// goroutines — run under -race this is the registry's thread-safety
// proof — and checks the totals are exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "")
	g := r.Gauge("level", "")
	h := r.Histogram("lat", "", []int64{10, 100})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Registration races registration and scraping races mutation.
			r.Counter("hits", "").Inc()
			for i := 1; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 200))
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("worker %d scrape: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*(per-1) {
		t.Errorf("gauge = %g, want %d", got, workers*(per-1))
	}
	if got := h.Count(); got != workers*(per-1) {
		t.Errorf("histogram count = %d, want %d", got, workers*(per-1))
	}
}

// TestHistogramBucketBounds pins the le semantics: an observation
// equal to a bound lands in that bound's bucket, and exposition
// renders cumulative counts.
func TestHistogramBucketBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []int64{10, 20, 50})
	for _, v := range []int64{-5, 10, 11, 20, 21, 50, 51, 1000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if want := int64(-5 + 10 + 11 + 20 + 21 + 50 + 51 + 1000); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_bucket{le="10"} 2`,   // -5, 10
		`lat_bucket{le="20"} 4`,   // + 11, 20
		`lat_bucket{le="50"} 6`,   // + 21, 50
		`lat_bucket{le="+Inf"} 8`, // + 51, 1000
		`lat_count 8`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("bad", "", []int64{5, 5})
}

// TestPrometheusExpositionGolden pins the full text format byte for
// byte. Regenerate with `go test -run Golden -update
// ./internal/obs/metrics` and eyeball the diff.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("noc_fabric_flits_total", "flits forwarded per switch output stage", L("router", "r0.0")).Add(42)
	r.Counter("noc_fabric_flits_total", "flits forwarded per switch output stage", L("router", "r1.0")).Add(7)
	r.Counter("noc_sim_events_total", "kernel events executed").Add(123456)
	r.Gauge("noc_sim_event_heap_depth", "pending events in the kernel heap").Set(17)
	r.Gauge("noc_niu_txn_outstanding", "transactions in flight per master NIU", L("node", "1")).Set(3.5)
	r.GaugeFunc("noc_sim_events_per_sec", "session-average kernel events per wall second",
		func() float64 { return 250000.25 })
	h := r.Histogram("noc_point_wall_ms", "wall-clock per completed point, milliseconds",
		[]int64{10, 100, 1000}, L("kind", "sweep"))
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition diverged from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	// A second scrape must render identically: exposition is
	// deterministic, not map-ordered.
	var again bytes.Buffer
	r.WritePrometheus(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two scrapes of an idle registry differ")
	}
}

// TestEach pins the flat-dump view snapshots use.
func TestEach(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Gauge("a_gauge", "").Set(1.5)
	r.Histogram("h", "", []int64{10}).Observe(4)
	var keys []string
	vals := map[string]float64{}
	r.Each(func(k string, v float64) {
		keys = append(keys, k)
		vals[k] = v
	})
	want := []string{"a_gauge", "b_total", "h_count", "h_sum"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	if vals["b_total"] != 2 || vals["a_gauge"] != 1.5 || vals["h_sum"] != 4 || vals["h_count"] != 1 {
		t.Fatalf("values = %v", vals)
	}
}
