// Mixedsoc: the paper's Fig 1 — seven IP masters with seven different
// sockets (AXI, OCP, AHB, PVCI, BVCI, AVCI, and a proprietary streaming
// protocol) plus four mixed-socket memories, all on one layered NoC,
// each behind its protocol's NIU. Runs a self-checking workload and
// prints per-socket results.
package main

import (
	"fmt"
	"log"

	"gonoc/internal/soc"
	"gonoc/internal/stats"
)

func main() {
	s := soc.BuildNoC(soc.Config{
		Seed:              2005, // the year the paper appeared
		RequestsPerMaster: 30,
		Topology:          soc.Mesh, // 4x3 mesh, XY routing
	})
	cycles, err := s.Run(10_000_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Fig-1 mixed SoC on a 4x3 mesh NoC: all sockets served in %d cycles\n\n", cycles)
	t := stats.NewTable("per-socket traffic (write+read-back pairs, self-checked)",
		"socket", "pairs", "mean lat (cyc)", "p95", "data mismatches")
	for _, name := range soc.Masters(false) {
		g := s.Gens[name].Stats()
		t.AddRow(name, g.Completed, g.Latency.Mean(), g.Latency.Percentile(95), g.Mismatches)
	}
	fmt.Println(t.Render())

	nt := stats.NewTable("NIU state (the paper's lookup tables at work)",
		"NIU", "transactions", "posted", "peak outstanding")
	for _, name := range soc.Masters(false) {
		st := s.MasterNIUs[name].Stats()
		nt.AddRow(name, st.Issued, st.Posted, st.PeakTable)
	}
	fmt.Println(nt.Render())
	fmt.Printf("fabric totals: %d packets injected / %d ejected — transport never saw a transaction\n",
		s.Net.Injected(), s.Net.Ejected())
}
