package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: run
// spawns os.Executable() with --child, and this dispatches it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestEveryMetric runs every workload untraced and traced (and so every
// layer driver) at the short scale, through the same parent and child
// processes as a real run. Each must pass its correctness gates and print
// exactly the metrics BENCHMARK.json declares, finite, in the declared unit.
func TestEveryMetric(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			var out, errb bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--short",
				"--trace-out", filepath.Join(t.TempDir(), "trace.json")}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, errb.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: %s not printed", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%s: %s in %q, declared %q", name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", name, trace, d.Name, m.Value)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestSpreadMatchesPython pins the quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(v); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

// TestCompareVerdicts checks the regression, unresolved and ok verdicts.
func TestCompareVerdicts(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	set := func(v ...float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{wFig1: {"ops_per_s": v}}
	}
	for _, tc := range []struct {
		a, b map[string]map[string][]float64
		code int
		want string
	}{
		{set(100, 101, 99, 100), set(99, 100, 98, 100), 0, " ok"},
		{set(100, 101, 99, 100), set(80, 81, 79, 80), 1, "REGRESSION"},
		{set(100, 150, 60, 100), set(99, 100, 98, 100), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := printComparison(&out, spec, tc.a, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("exit %d, want %d; output:\n%s", code, tc.code, out.String())
		}
	}
}
