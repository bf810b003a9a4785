// Busbridge: the paper's Fig 2 next to its Fig 1 — the same seven-master
// mixed-socket IP set run on (a) a traditional shared AHB bus where every
// foreign socket crosses a bridge, and (b) the layered NoC. Prints the
// latency penalty bridges introduce.
package main

import (
	"fmt"
	"log"

	"gonoc/internal/soc"
	"gonoc/internal/stats"
)

func main() {
	const seed, requests = 7, 20

	noc := soc.BuildNoC(soc.Config{Seed: seed, RequestsPerMaster: requests})
	nocCycles, err := noc.Run(10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	bus := soc.BuildBus(soc.Config{Seed: seed, RequestsPerMaster: requests})
	busCycles, err := bus.Run(40_000_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Same IP set, same seed, two interconnects (paper Fig 1 vs Fig 2):")
	fmt.Printf("  NoC total: %8d cycles\n", nocCycles)
	fmt.Printf("  bus total: %8d cycles (%.1fx)\n\n", busCycles, float64(busCycles)/float64(nocCycles))

	t := stats.NewTable("mean transaction latency (cycles)",
		"socket", "NoC (NIU)", "bus (bridge)", "penalty")
	for _, name := range soc.Masters(false) {
		n := noc.Gens[name].Stats().Latency.Mean()
		b := bus.Gens[name].Stats().Latency.Mean()
		t.AddRow(name, n, b, fmt.Sprintf("%.1fx", b/n))
	}
	fmt.Println(t.Render())
	fmt.Println("note: the AHB master is native on the bus (it IS the reference socket);")
	fmt.Println("every other socket pays bridge latency and serialization — §2's penalty.")
}
