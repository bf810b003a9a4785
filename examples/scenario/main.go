// Scenario: run a declarative experiment composition from a JSON file
// instead of wiring the SoC in Go. The embedded cpu-dma-display file —
// worked example 2 in docs/SCENARIOS.md — declares a CPU, a DMA engine,
// and an urgent-priority display controller on a QoS mesh; the scenario
// layer validates it, lowers it onto the soc/traffic APIs, and runs it.
//
// The same file runs from the command line:
//
//	go run ./cmd/noctraffic -scenario examples/scenario/cpu-dma-display.scenario.json
package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"log"
	"reflect"

	"gonoc/internal/scenario"
)

//go:embed cpu-dma-display.scenario.json
var scenarioFile []byte

func main() {
	// 1. Load: strict decode + validation. A typoed field or an
	// overlapping address window dies here with the field's name.
	s, err := scenario.Load(bytes.NewReader(scenarioFile))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q (%s workload on a %s, mode %s)\n%s\n\n",
		s.Name, s.Workload.Kind, s.Fabric.Topology, s.Mode(), s.Description)

	// 2. Execute: the resolver lowers the declaration onto the existing
	// soc/traffic engines — the same code path every flag-driven run
	// uses, so scenario results are comparable with everything else.
	rep, err := scenario.Execute(s, scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The report for a "soc" scenario is the per-master digest.
	fmt.Println(rep.Trans.Table().Render())
	fmt.Printf("throughput: %.1f completions/kcycle; incomplete at drain cap: %d\n",
		rep.Trans.Throughput, rep.Trans.Incomplete)

	// 4. Determinism is part of the contract: same file, same seed,
	// bit-identical digest (E14 holds this for every built-in).
	again, err := scenario.Execute(s, scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if reflect.DeepEqual(rep, again) {
		fmt.Println("re-run: bit-identical ✓")
	} else {
		log.Fatal("re-run diverged — scenario execution must be deterministic")
	}
}
