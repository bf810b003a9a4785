// Exclusive: the paper's §3 in action. Two masters with *different*
// sockets — one AXI (exclusive access), one OCP (lazy synchronization) —
// contend for a lock variable held in one memory. Both mechanisms ride
// the same single user-defined packet bit and the same slave-NIU monitor:
// VC-neutral synchronization.
package main

import (
	"fmt"
	"log"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

func main() {
	clk := sim.NewClock(sim.NewKernel(), "sys", sim.Nanosecond, 0)

	// Each master retries after a small random backoff, as spinlock
	// implementations do; the jitter lets both sockets win rounds. The
	// retrier is registered before the masters, so a retry due in a
	// cycle issues at the start of that cycle's edge.
	type retry struct {
		due int64
		fn  func()
	}
	var retries []retry // in the order they were drawn
	clk.Register(sim.ClockedFunc{OnEval: func(cycle int64) {
		waiting := retries[:0]
		for _, r := range retries {
			if r.due <= cycle {
				r.fn()
			} else {
				waiting = append(waiting, r)
			}
		}
		retries = waiting
	}})

	net := transport.NewCrossbar(clk, transport.NetConfig{}, []noctypes.NodeID{1, 2, 3})
	amap := core.NewAddressMap()
	amap.MustAdd("ram", 0x1000, 0x1000, 3)
	amap.Freeze()
	services := core.ServiceSet{Exclusive: true}

	axiPort := axi.NewPort(clk, "axi", 4)
	axiCPU := axi.NewMaster(clk, axiPort, nil)
	niu.NewAXIMaster(clk, net, amap, axiPort, niu.MasterConfig{Node: 1, Services: services})

	ocpPort := ocp.NewPort(clk, "ocp", 4)
	ocpCPU := ocp.NewMaster(clk, ocpPort)
	niu.NewOCPMaster(clk, net, amap, ocpPort, niu.MasterConfig{Node: 2, Services: services, NumTags: 4})

	ramPort := axi.NewPort(clk, "ram", 4)
	store := mem.NewBacking(0x2000)
	axi.NewMemory(clk, ramPort, store, 0x1000, axi.MemoryConfig{Latency: 1})
	niu.NewAXISlave(clk, net, ramPort, niu.SlaveConfig{Node: 3, Services: services})

	// Both masters run lock-acquire loops on the same word: read the
	// current value exclusively, then conditionally increment. The
	// monitor in the slave NIU guarantees exactly one winner per round.
	const lockAddr = 0x1000
	const rounds = 10
	axiWins, ocpWins, axiFails, ocpFails := 0, 0, 0, 0
	axiDone, ocpDone := 0, 0
	var lastCycle int64 // the cycle the last round completed in
	rng := sim.NewRNG(2005)

	again := func(fn func()) {
		retries = append(retries, retry{due: clk.Cycle() + int64(rng.Range(1, 20)), fn: fn})
	}
	var axiLoop func()
	axiLoop = func() {
		axiCPU.ReadExclusive(0, lockAddr, 4, 1, axi.BurstIncr, func(res axi.ReadResult) {
			v := res.Data[0]
			axiCPU.WriteExclusive(0, lockAddr, 4, axi.BurstIncr, []byte{v + 1, 0, 0, 0}, func(r axi.Resp) {
				if r == axi.RespEXOKAY {
					axiWins++
				} else {
					axiFails++
				}
				axiDone++
				lastCycle = clk.Cycle()
				if axiDone < rounds {
					again(axiLoop)
				}
			})
		})
	}
	var ocpLoop func()
	ocpLoop = func() {
		ocpCPU.ReadLinked(0, lockAddr, 4, func(res ocp.ReadResult) {
			v := res.Data[0]
			ocpCPU.WriteConditional(0, lockAddr, 4, []byte{v + 1, 0, 0, 0}, func(s ocp.SResp) {
				if s == ocp.RespDVA {
					ocpWins++
				} else {
					ocpFails++
				}
				ocpDone++
				lastCycle = clk.Cycle()
				if ocpDone < rounds {
					again(ocpLoop)
				}
			})
		})
	}
	axiLoop()
	ocpLoop()

	for cycles := 0; axiDone < rounds || ocpDone < rounds; cycles++ {
		if cycles == 10_000 { // 10 µs at 1 GHz
			log.Fatal("the rounds did not finish in 10,000 cycles")
		}
		clk.RunCycles(1)
	}

	final := store.Read(0, 1)[0]
	fmt.Println("cross-protocol synchronization through one NoC service:")
	fmt.Printf("  AXI exclusive pairs:  %d attempts, %d EXOKAY, %d failed\n", rounds, axiWins, axiFails)
	fmt.Printf("  OCP lazy-sync pairs:  %d attempts, %d DVA,    %d FAIL\n", rounds, ocpWins, ocpFails)
	fmt.Printf("  counter value: %d (== total successful increments %d)\n", final, axiWins+ocpWins)
	fmt.Printf("  last round completed at cycle %d\n", lastCycle)
	if int(final) != axiWins+ocpWins {
		log.Fatal("atomicity violated!")
	}
	fmt.Println("ok — no lost updates, no transport-layer changes, one packet bit")
}
