// Quickstart: the smallest complete NoC — one AXI CPU model and one AXI
// memory on a two-node fabric, connected through NIUs. Demonstrates the
// layering: the IP talks native AXI; the fabric sees only packets.
package main

import (
	"bytes"
	"fmt"
	"log"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

func main() {
	// 1. Simulation substrate: a kernel and one 1 GHz clock domain.
	k := sim.NewKernel()
	clk := sim.NewClock(k, "sys", sim.Nanosecond, 0)

	// 2. Transport layer: a two-node crossbar fabric.
	const (
		cpuNode noctypes.NodeID = 1
		memNode noctypes.NodeID = 2
	)
	net := transport.NewCrossbar(clk, transport.NetConfig{}, []noctypes.NodeID{cpuNode, memNode})

	// 3. Transaction layer: the system address map (SlvAddr decode).
	amap := core.NewAddressMap()
	amap.MustAdd("ram", 0x8000_0000, 1<<20, memNode)
	amap.Freeze()

	// 4. IP blocks and their NIUs.
	cpuPort := axi.NewPort(clk, "cpu", 4)
	cpu := axi.NewMaster(clk, cpuPort, nil)
	niu.NewAXIMaster(clk, net, amap, cpuPort, niu.MasterConfig{
		Node:     cpuNode,
		Services: core.ServiceSet{Exclusive: true},
	})

	ramPort := axi.NewPort(clk, "ram", 4)
	store := mem.NewBacking(1 << 20)
	axi.NewMemory(clk, ramPort, store, 0x8000_0000, axi.MemoryConfig{Latency: 2})
	niu.NewAXISlave(clk, net, ramPort, niu.SlaveConfig{
		Node:     memNode,
		Services: core.ServiceSet{Exclusive: true},
	})

	// 5. Traffic: write a burst, read it back, and measure.
	payload := []byte("hello, VC-neutral transaction layer!____") // 40B -> pad to 10 beats
	var writeDone, readDone bool
	var got []byte
	issueCycle := clk.Cycle()

	cpu.Write(0, 0x8000_0100, 4, axi.BurstIncr, payload, func(r axi.Resp) {
		writeDone = true
		fmt.Printf("cycle %4d: write completed (%v)\n", clk.Cycle(), r)
		cpu.Read(0, 0x8000_0100, 4, len(payload)/4, axi.BurstIncr, func(res axi.ReadResult) {
			readDone = true
			got = bytes.Clone(res.Data) // the data is valid only during the callback
			fmt.Printf("cycle %4d: read  completed (%v)\n", clk.Cycle(), res.Resp)
		})
	})

	for cycles := 0; !writeDone || !readDone; cycles++ {
		if cycles == 100_000 { // 100 µs at 1 GHz
			log.Fatal("the round trip did not finish in 100,000 cycles")
		}
		clk.RunCycles(1)
	}
	fmt.Printf("\nround trip: %d cycles, data %q\n", clk.Cycle()-issueCycle, got)
	fmt.Printf("fabric moved %d packets end to end\n", net.Ejected())
	if string(got) != string(payload) {
		log.Fatal("data mismatch!")
	}
	fmt.Println("ok")
}
