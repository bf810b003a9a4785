package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that --compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles compares two sets of untraced runs, per workload and
// end-to-end metric. A metric regresses when B's median is worse than A's
// by more than its bound. It is unresolved when either side's spread (the
// interquartile range over the median) is wider than the bound, unless
// every run of B reads better than every run of A.
func compareFiles(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readRecords(aPath)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRecords(bPath); err == nil {
			return printComparison(stdout, spec, a, b)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func printComparison(w io.Writer, spec benchSpec, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-14s %5s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "n", "A median", "A iqr", "B median", "B iqr", "worse", "bound", "verdict")
	for _, name := range workloadNames {
		if a[name] == nil && b[name] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := a[name][m.Name], b[name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-14s %2d/%-2d %s\n", name, m.Name, len(va), len(vb), "missing on one side")
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
				if allBetter(va, vb, m.Better == "higher") {
					verdict = "better (every run)"
				}
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %2d/%-2d %14.6g %6.1f%% %14.6g %6.1f%% %7.1f%% %5.0f%%  %s\n",
				name, m.Name, len(va), len(vb), ma, 100*sa, mb, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higher bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// spread is the distance between the first and third quartiles as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method).
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// readRecords groups the untraced results of an --out file by workload
// and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening records: %w", err)
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Result.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], m.Value)
		}
	}
	return out, sc.Err()
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
