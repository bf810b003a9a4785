package experiments

import (
	"bytes"

	"gonoc/internal/area"
	"gonoc/internal/core"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

// quietNoC and quietBus build probe systems with no background traffic.
func quietNoC(seed int64) *soc.System {
	return soc.BuildNoC(soc.Config{Seed: seed, Quiet: true})
}

func quietBus(seed int64) *soc.System {
	return soc.BuildBus(soc.Config{Seed: seed, Quiet: true})
}

// E1CompatibilityMatrix reproduces Fig 1 vs Fig 2 as a feature matrix:
// each socket capability probed end-to-end on the NoC (through NIUs) and
// on the bridged reference bus. This is the paper's central table, made
// executable.
func E1CompatibilityMatrix(seed int64) *stats.Table {
	t := stats.NewTable("E1/Fig1-Fig2 — VC feature compatibility: layered NoC vs bridged bus",
		"feature", "NoC (Fig 1)", "bridged bus (Fig 2)", "evidence (NoC)", "evidence (bus)")

	type probe struct {
		name string
		fn   func(*soc.System) probeResult
	}
	probes := []probe{
		{"AXI out-of-order responses (IDs)", probeOOO},
		{"OCP multi-threaded completion", probeThreads},
		{"OCP posted writes (non-blocking)", probePosted},
		{"AXI exclusive access (EXOKAY)", probeExclusive},
		{"OCP lazy synchronization", probeLazySync},
		{"FIXED-burst semantics to AHB slave", probeFixedBurst},
	}
	for _, p := range probes {
		noc := p.fn(quietNoC(seed))
		bus := p.fn(quietBus(seed))
		t.AddRow(p.name, stats.Mark(noc.ok), stats.Mark(bus.ok), noc.note, bus.note)
	}
	// Locked atomic RMW needs its own two-master rig.
	nocLock := probeLockedAtomicity(buildLockProbeNoC(), 5)
	busLock := probeLockedAtomicity(buildLockProbeBus(), 5)
	t.AddRow("AHB locked atomic RMW", stats.Mark(nocLock.ok), stats.Mark(busLock.ok), nocLock.note, busLock.note)
	return t
}

// E2Performance runs the identical mixed workload on both interconnects
// and reports per-master latency, total runtime, and estimated area —
// the bridge latency/area penalty of §2 quantified.
func E2Performance(seed int64, requests int) []*stats.Table {
	lat := stats.NewTable("E2 — mixed-SoC performance: NoC vs bridged bus (same IP set, same seed)",
		"master", "NoC mean (cyc)", "NoC p95", "bus mean (cyc)", "bus p95", "bus/NoC")

	nocSys := soc.BuildNoC(soc.Config{Seed: seed, RequestsPerMaster: requests})
	nocCycles, err := nocSys.Run(5_000_000)
	if err != nil {
		panic(err)
	}
	busSys := soc.BuildBus(soc.Config{Seed: seed, RequestsPerMaster: requests})
	busCycles, err := busSys.Run(20_000_000)
	if err != nil {
		panic(err)
	}

	for _, m := range soc.Masters(false) {
		n := nocSys.Gens[m].Stats().Latency
		b := busSys.Gens[m].Stats().Latency
		ratio := 0.0
		if n.Mean() > 0 {
			ratio = b.Mean() / n.Mean()
		}
		lat.AddRow(m, n.Mean(), n.Percentile(95), b.Mean(), b.Percentile(95), ratio)
	}

	sum := stats.NewTable("E2 — system totals",
		"system", "total cycles", "interconnect gates (est.)")
	nocGates := nocGateTotal()
	busGates := busGateTotal()
	sum.AddRow("NoC (Fig 1)", nocCycles, nocGates)
	sum.AddRow("bridged bus (Fig 2)", busCycles, busGates)
	return []*stats.Table{lat, sum}
}

func nocGateTotal() int {
	g := 0
	g += area.MasterNIUGates(area.ProtoAXI, core.IDOrdered, 4, 8, 4)
	g += area.MasterNIUGates(area.ProtoOCP, core.ThreadOrdered, 4, 8, 4)
	g += area.MasterNIUGates(area.ProtoAHB, core.FullyOrdered, 1, 8, 4)
	g += area.MasterNIUGates(area.ProtoPVCI, core.FullyOrdered, 1, 1, 1)
	g += area.MasterNIUGates(area.ProtoBVCI, core.FullyOrdered, 1, 8, 4)
	g += area.MasterNIUGates(area.ProtoAVCI, core.IDOrdered, 4, 8, 4)
	g += area.MasterNIUGates(area.ProtoProp, core.IDOrdered, 4, 8, 4)
	for _, p := range []area.Protocol{area.ProtoAXI, area.ProtoOCP, area.ProtoAHB, area.ProtoBVCI} {
		g += area.SlaveNIUGates(p, 4, true, 8)
	}
	// 11-port crossbar switch.
	g += area.RouterGates(transport.NetConfig{FlitBytes: 8, BufDepth: 16, QoS: true, LegacyLock: true}, 11, 11)
	return g
}

func busGateTotal() int {
	g := 0
	for _, p := range []area.Protocol{area.ProtoAXI, area.ProtoOCP, area.ProtoPVCI, area.ProtoBVCI, area.ProtoAVCI, area.ProtoProp} {
		g += area.BridgeGates(p) // master-side bridges
	}
	for _, p := range []area.Protocol{area.ProtoAXI, area.ProtoOCP, area.ProtoBVCI} {
		g += area.BridgeGates(p) // slave-side bridges
	}
	g += 2500 // bus arbiter + decoder + default slave
	return g
}

// E3SwitchingModes verifies §1's layering claim: wormhole vs
// store-and-forward changes transport timing but is invisible at the
// transaction level (identical final memory, identical completions).
func E3SwitchingModes(seed int64, requests int) *stats.Table {
	t := stats.NewTable("E3 — switching mode is invisible at the transaction level",
		"mode", "total cycles", "mean lat (axi)", "mean lat (ahb)", "stores identical", "completions")

	type result struct {
		cycles    int64
		axiLat    float64
		ahbLat    float64
		stores    map[string][]byte
		completed int
	}
	runMode := func(mode transport.SwitchingMode) result {
		cfg := soc.Config{Seed: seed, RequestsPerMaster: requests}
		cfg.Net.Mode = mode
		cfg.Net.BufDepth = 64
		s := soc.BuildNoC(cfg)
		cycles, err := s.Run(5_000_000)
		if err != nil {
			panic(err)
		}
		stores := map[string][]byte{}
		for name, st := range s.Stores {
			stores[name] = st.Read(0, 0x40000)
		}
		completed := 0
		for _, g := range s.Gens {
			completed += g.Stats().Completed
		}
		return result{
			cycles: cycles,
			axiLat: s.Gens["axi"].Stats().Latency.Mean(),
			ahbLat: s.Gens["ahb"].Stats().Latency.Mean(),
			stores: stores, completed: completed,
		}
	}
	wh := runMode(transport.Wormhole)
	saf := runMode(transport.StoreAndForward)
	identical := true
	for name := range wh.stores {
		if !bytes.Equal(wh.stores[name], saf.stores[name]) {
			identical = false
		}
	}
	t.AddRow("wormhole", wh.cycles, wh.axiLat, wh.ahbLat, stats.Mark(identical), wh.completed)
	t.AddRow("store-and-forward", saf.cycles, saf.axiLat, saf.ahbLat, stats.Mark(identical), saf.completed)
	return t
}

// E4Ordering validates the three ordering models of §3 over one fabric,
// using the transaction-layer order checker.
func E4Ordering(seed int64) *stats.Table {
	t := stats.NewTable("E4 — one Tag header serves three ordering models",
		"socket", "model", "completions", "violations", "cross-scope reorders")

	// AXI: ID-ordered.
	{
		s := quietNoC(seed)
		chk := core.NewOrderChecker(core.IDOrdered)
		var seq uint64
		done := 0
		issue := func(id int, dst uint64, beats int) {
			seq++
			my := seq
			chk.Issued(id, my)
			s.AXIM.Read(id, dst, 4, beats, axi.BurstIncr, func(axi.ReadResult) {
				if err := chk.Completed(id, my); err != nil {
					panic(err)
				}
				done++
			})
		}
		for i := 0; i < 12; i++ {
			if i%2 == 0 {
				issue(0, soc.BaseBVCIMem+uint64(0x40000+i*64), 16) // slow target
			} else {
				issue(1, soc.BaseAXIMem+uint64(0x40000+i*64), 1) // fast target
			}
		}
		runUntil(s.Clk, func() bool { return done == 12 }, 500_000)
		t.AddRow("AXI", "id-ordered", chk.Checked(), 0, chk.CrossScopeReorders())
	}
	// OCP: thread-ordered.
	{
		s := quietNoC(seed)
		chk := core.NewOrderChecker(core.ThreadOrdered)
		var seq uint64
		done := 0
		for i := 0; i < 12; i++ {
			th := i % 2
			beats := 1
			if th == 0 {
				beats = 8 // slow thread: long bursts
			}
			dst := soc.BaseOCPMem + uint64(0x40000+i*64)
			seq++
			my := seq
			chk.Issued(th, my)
			s.OCPM.Read(th, dst, 4, beats, ocp.SeqIncr, func(ocp.ReadResult) {
				if err := chk.Completed(th, my); err != nil {
					panic(err)
				}
				done++
			})
		}
		runUntil(s.Clk, func() bool { return done == 12 }, 500_000)
		t.AddRow("OCP", "thread-ordered", chk.Checked(), 0, chk.CrossScopeReorders())
	}
	// AHB: fully ordered — zero reorders by contract.
	{
		s := quietNoC(seed)
		chk := core.NewOrderChecker(core.FullyOrdered)
		var seq uint64
		done := 0
		for i := 0; i < 12; i++ {
			dst := soc.BaseAHBMem + uint64(0x40000+i*64)
			seq++
			my := seq
			chk.Issued(0, my)
			s.AHBM.Read(dst, 4, ahb.BurstIncr, 2, func(ahb.ReadResult) {
				if err := chk.Completed(0, my); err != nil {
					panic(err)
				}
				done++
			})
		}
		runUntil(s.Clk, func() bool { return done == 12 }, 500_000)
		t.AddRow("AHB", "fully-ordered", chk.Checked(), 0, chk.CrossScopeReorders())
	}
	return t
}
