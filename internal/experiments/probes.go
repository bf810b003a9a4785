// This file holds the end-to-end capability probes behind E1's
// compatibility matrix; see doc.go for the package overview.

package experiments

import (
	"fmt"

	busipkg "gonoc/internal/bus"
	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/transport"
)

// run drives a system's clock until cond or maxCycles; it reports
// whether cond was reached.
func runUntil(clk *sim.Clock, cond func() bool, maxCycles int64) bool {
	start := clk.Cycle()
	for clk.Cycle()-start < maxCycles {
		if cond() {
			return true
		}
		clk.RunCycles(1)
	}
	return false
}

// probeResult is one compatibility-matrix cell with its evidence.
type probeResult struct {
	ok   bool
	note string
}

// probeOOO checks whether AXI reads on distinct IDs may complete out of
// order: a long read to the far/slow BVCI memory on ID 0, then a short
// read to the AXI memory on ID 1.
func probeOOO(s *soc.System) probeResult {
	var order []int
	s.AXIM.Read(0, soc.BaseBVCIMem+0x40000, 4, 16, axi.BurstIncr,
		func(axi.ReadResult) { order = append(order, 0) })
	s.AXIM.Read(1, soc.BaseAXIMem+0x40000, 4, 1, axi.BurstIncr,
		func(axi.ReadResult) { order = append(order, 1) })
	if !runUntil(s.Clk, func() bool { return len(order) == 2 }, 100_000) {
		return probeResult{false, "timeout"}
	}
	if order[0] == 1 {
		return probeResult{true, "short ID-1 read overtook long ID-0 read"}
	}
	return probeResult{false, "completions strictly in issue order"}
}

// probeThreads checks OCP cross-thread completion independence.
func probeThreads(s *soc.System) probeResult {
	var order []int
	s.OCPM.Read(0, soc.BaseOCPMem+0x40000, 4, 16, ocp.SeqIncr,
		func(ocp.ReadResult) { order = append(order, 0) })
	s.OCPM.Read(1, soc.BaseOCPMem+0x50000, 4, 1, ocp.SeqIncr,
		func(ocp.ReadResult) { order = append(order, 1) })
	if !runUntil(s.Clk, func() bool { return len(order) == 2 }, 100_000) {
		return probeResult{false, "timeout"}
	}
	if order[0] == 1 {
		return probeResult{true, "thread 1 overtook thread 0"}
	}
	return probeResult{false, "threads serialized"}
}

// probePosted measures whether posted writes are non-blocking. Socket
// pipes buffer a few beats, so the probe issues enough writes (12) that
// acceptance of the last one requires the far side to actually consume:
// an NIU consumes one per few cycles; a bridge consumes one per full
// memory round trip.
func probePosted(s *soc.System) probeResult {
	const writes = 12
	accepted := 0
	start := s.Clk.Cycle()
	for i := 0; i < writes; i++ {
		s.OCPM.Write(0, soc.BaseOCPMem+0x40000+uint64(i*64), 4, ocp.SeqIncr,
			[]byte{1, 2, 3, 4}, nil, func() { accepted++ })
	}
	if !runUntil(s.Clk, func() bool { return accepted == writes }, 100_000) {
		return probeResult{false, "timeout"}
	}
	cycles := s.Clk.Cycle() - start
	// Non-blocking: bounded cycles per posted write.
	if cycles <= writes*8 {
		return probeResult{true, fmt.Sprintf("%d posted writes accepted in %d cycles", writes, cycles)}
	}
	return probeResult{false, fmt.Sprintf("acceptance blocked for %d cycles", cycles)}
}

// probeExclusive checks the AXI exclusive pair end to end.
func probeExclusive(s *soc.System) probeResult {
	var rsp axi.Resp = 0xFF
	s.AXIM.ReadExclusive(2, soc.BaseAXIMem+0x48000, 4, 1, axi.BurstIncr, nil)
	s.AXIM.WriteExclusive(2, soc.BaseAXIMem+0x48000, 4, axi.BurstIncr,
		[]byte{7, 7, 7, 7}, func(r axi.Resp) { rsp = r })
	if !runUntil(s.Clk, func() bool { return rsp != 0xFF }, 100_000) {
		return probeResult{false, "timeout"}
	}
	if rsp == axi.RespEXOKAY {
		return probeResult{true, "EXOKAY returned"}
	}
	return probeResult{false, fmt.Sprintf("exclusive demoted (%v)", rsp)}
}

// probeLazySync checks OCP ReadLinked/WriteConditional end to end.
func probeLazySync(s *soc.System) probeResult {
	var wrc ocp.SResp
	s.OCPM.ReadLinked(2, soc.BaseOCPMem+0x48000, 4, nil)
	s.OCPM.WriteConditional(2, soc.BaseOCPMem+0x48000, 4, []byte{5, 5, 5, 5},
		func(r ocp.SResp) { wrc = r })
	if !runUntil(s.Clk, func() bool { return wrc != 0 }, 100_000) {
		return probeResult{false, "timeout"}
	}
	if wrc == ocp.RespDVA {
		return probeResult{true, "WriteConditional succeeded"}
	}
	return probeResult{false, fmt.Sprintf("lazy sync lost (%v)", wrc)}
}

// probeFixedBurst checks FIXED-burst semantics against the AHB memory:
// a 3-beat FIXED write must leave the neighbouring word untouched. A
// bridge that degrades FIXED to INCR smears the burst across addresses.
func probeFixedBurst(s *soc.System) probeResult {
	const addr = soc.BaseAHBMem + 0x48000
	seeded := false
	s.AXIM.Write(3, addr+4, 4, axi.BurstIncr, []byte{0xEE, 0xEE, 0xEE, 0xEE},
		func(axi.Resp) { seeded = true })
	if !runUntil(s.Clk, func() bool { return seeded }, 100_000) {
		return probeResult{false, "timeout"}
	}
	done := false
	s.AXIM.Write(3, addr, 4, axi.BurstFixed,
		[]byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, func(axi.Resp) { done = true })
	if !runUntil(s.Clk, func() bool { return done }, 100_000) {
		return probeResult{false, "timeout"}
	}
	got := s.Stores["ahb"].Read(0x48000, 8)
	last := got[0] == 3
	neighbour := got[4] == 0xEE
	if last && neighbour {
		return probeResult{true, "last beat stuck, neighbour intact"}
	}
	return probeResult{false, fmt.Sprintf("FIXED semantics lost (mem=%v)", got)}
}

// lockProbeSystem is a dedicated two-AHB-master rig for the atomicity
// probe, built on either interconnect.
type lockProbeSystem struct {
	clk   *sim.Clock
	a, b  *ahb.Master
	store *mem.Backing
}

func buildLockProbeNoC() *lockProbeSystem {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "lock", sim.Nanosecond, 0)
	net := transport.NewCrossbar(clk, transport.NetConfig{LegacyLock: true, BufDepth: 16},
		[]noctypes.NodeID{1, 2, 3})
	amap := core.NewAddressMap()
	amap.MustAdd("mem", 0x1000, 0x1000, 3)
	amap.Freeze()
	store := mem.NewBacking(0x2000)
	services := core.ServiceSet{Exclusive: true, LegacyLock: true}

	mk := func(node noctypes.NodeID, name string) *ahb.Master {
		port := ahb.NewPort(clk, name, 4)
		m := ahb.NewMaster(clk, port, 1)
		niu.NewAHBMaster(clk, net, amap, port, niu.MasterConfig{
			Node: node, Services: services,
			Table: core.TableConfig{MaxOutstanding: 2, MaxTargets: 2},
		})
		return m
	}
	a, b := mk(1, "mA"), mk(2, "mB")
	sport := axi.NewPort(clk, "slv", 4)
	axi.NewMemory(clk, sport, store, 0x1000, axi.MemoryConfig{Latency: 1})
	niu.NewAXISlave(clk, net, sport, niu.SlaveConfig{Node: 3, Services: services})
	return &lockProbeSystem{clk: clk, a: a, b: b, store: store}
}

func buildLockProbeBus() *lockProbeSystem {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "lock", sim.Nanosecond, 0)
	amap := core.NewAddressMap()
	amap.MustAdd("mem", 0x1000, 0x1000, 9)
	amap.Freeze()
	store := mem.NewBacking(0x2000)
	b := busipkg.New(clk, amap)
	mk := func(name string) *ahb.Master {
		port := ahb.NewPort(clk, name, 4)
		m := ahb.NewMaster(clk, port, 1)
		b.AddMaster(port)
		return m
	}
	ma, mb := mk("mA"), mk("mB")
	sport := ahb.NewPort(clk, "slv", 2)
	ahb.NewMemory(clk, sport, store, 0x1000, ahb.MemoryConfig{WaitStates: 1})
	b.AddSlave(9, sport)
	return &lockProbeSystem{clk: clk, a: ma, b: mb, store: store}
}

// probeLockedAtomicity runs two masters doing locked increments of one
// counter; the final value equals the total increment count iff the
// read-modify-write sequences were atomic.
func probeLockedAtomicity(sys *lockProbeSystem, perMaster int) probeResult {
	const addr = 0x1000
	doneA, doneB := 0, 0
	var rmw func(m *ahb.Master, done *int)
	rmw = func(m *ahb.Master, done *int) {
		m.ReadLocked(addr, 4, func(res ahb.ReadResult) {
			v := res.Data[0]
			m.WriteUnlock(addr, 4, []byte{v + 1, 0, 0, 0}, func(ahb.Resp) {
				*done++
				if *done < perMaster {
					rmw(m, done)
				}
			})
		})
	}
	rmw(sys.a, &doneA)
	rmw(sys.b, &doneB)
	if !runUntil(sys.clk, func() bool { return doneA == perMaster && doneB == perMaster }, 1_000_000) {
		return probeResult{false, "timeout"}
	}
	got := int(sys.store.Read(0, 4)[0])
	if got == 2*perMaster {
		return probeResult{true, fmt.Sprintf("counter = %d after %d racing locked RMWs", got, 2*perMaster)}
	}
	return probeResult{false, fmt.Sprintf("lost updates: counter=%d want %d", got, 2*perMaster)}
}
