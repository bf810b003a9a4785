// Command nocbench runs the full reproduction suite — experiments E1–E16,
// described in the package docs of internal/experiments and summarized in
// the top-level README.md — and prints the paper-style tables.
//
// With -json the same tables are emitted as one machine-readable JSON
// document, so CI can record benchmark trajectories (BENCH_*.json) and
// diff them across commits.
//
// Usage:
//
//	nocbench [-seed N] [-requests N] [-only E1,E3,...] [-json]
//	         [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gonoc/internal/experiments"
	"gonoc/internal/obs/prof"
	"gonoc/internal/stats"
)

func main() {
	seed := flag.Int64("seed", 1, "root random seed")
	requests := flag.Int("requests", 25, "write/read-back pairs per master for E2/E3")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document instead of text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the suite to this file (docs/PERFORMANCE.md)")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	flag.Parse()
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	if *jsonOut {
		if err := stats.WriteJSON(os.Stdout, experiments.RunSuite(*seed, *requests, sel)); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, e := range experiments.Suite {
		if sel(e.ID) {
			for _, t := range e.Run(*seed, *requests) {
				fmt.Println(t.Render())
			}
		}
	}
}
