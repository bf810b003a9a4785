package experiments

import (
	"fmt"
	"reflect"

	"gonoc/internal/scenario"
	"gonoc/internal/stats"
)

// E14 closes the loop the scenario layer opens: the paper argues one
// VC-neutral transaction layer lets arbitrary heterogeneous
// compositions ride one NoC, and internal/scenario makes compositions
// declarative — so the registry's built-ins (an application-shaped SoC
// trio, a double-buffered pipeline, an all-socket stress, and three
// packet-level stress shapes) are executed here through the same
// resolver every CLI run uses. Each scenario is run twice; the
// "bit-identical re-run" column is the determinism contract (same file,
// same seed, same result) that makes scenario files citable artifacts
// rather than descriptions of roughly-what-happened.

// E14Result carries the per-scenario reports so tests and the JSON
// artifact can dig past the summary table.
type E14Result struct {
	Tables  []*stats.Table
	Reports map[string]*scenario.Report
}

// E14Scenarios runs every built-in scenario at the given seed and
// digests one summary row per scenario plus a per-master detail table
// for the application-shaped composition.
func E14Scenarios(seed int64) E14Result {
	res := E14Result{Reports: map[string]*scenario.Report{}}
	t := stats.NewTable(
		fmt.Sprintf("E14 — declarative scenarios: every built-in composition resolved and run (seed %d)", seed),
		"scenario", "kind", "mode", "throughput", "latency", "bit-identical re-run")
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		sc.Seed = seed
		rep, err := scenario.Execute(sc, scenario.Options{})
		if err != nil {
			panic("experiments: built-in scenario failed: " + err.Error())
		}
		again, err := scenario.Execute(sc, scenario.Options{})
		if err != nil {
			panic("experiments: built-in scenario failed: " + err.Error())
		}
		res.Reports[name] = rep
		tput, lat := headline(rep)
		t.AddRow(name, sc.Workload.Kind, string(rep.Mode), tput, lat,
			stats.Mark(reflect.DeepEqual(rep, again)))
	}
	res.Tables = append(res.Tables, t)

	// Detail: the CPU/DMA/display trio, where the per-master roles
	// (rates, read mixes, priority classes) are visible in the digests.
	if rep := res.Reports["cpu-dma-display"]; rep != nil && rep.Trans != nil {
		dt := rep.Trans.Table()
		dt.Title = "E14 — cpu-dma-display per-master detail (axi=CPU high-prio, ahb=DMA bulk, prop=display urgent)"
		res.Tables = append(res.Tables, dt)
	}
	return res
}

// headline compresses a scenario report into one throughput string and
// one latency string, whatever the mode measured.
func headline(rep *scenario.Report) (tput, lat string) {
	switch {
	case rep.Trans != nil:
		worst := int64(0)
		for _, m := range rep.Trans.PerMaster {
			if m.Latency.P95 > worst {
				worst = m.Latency.P95
			}
		}
		return fmt.Sprintf("%.1f cmpl/kcycle", rep.Trans.Throughput),
			fmt.Sprintf("worst p95 %d cyc", worst)
	case rep.Sweep != nil:
		last := rep.Sweep.Points[len(rep.Sweep.Points)-1]
		return fmt.Sprintf("sat %.4f txn/node/cyc", rep.Sweep.SatThroughput),
			fmt.Sprintf("p99 %d cyc @ %.2g", last.Latency.P99, last.Offered)
	case rep.Campaign != nil:
		return fmt.Sprintf("%d points", len(rep.Campaign.Points)), "see curves"
	default:
		return fmt.Sprintf("%.4f txn/node/cyc", rep.Single.Throughput),
			fmt.Sprintf("p99 %d cyc", rep.Single.Latency.P99)
	}
}
