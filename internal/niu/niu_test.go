package niu

import (
	"bytes"
	"strings"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

const memBase = 0x1000_0000
const memSize = 1 << 20

// fab is a crossbar fabric with an address map and a shared store.
type fab struct {
	k     *sim.Kernel
	clk   *sim.Clock
	net   *transport.Network
	amap  *core.AddressMap
	store *mem.Backing
}

func newFab(slaveNode noctypes.NodeID, nodes ...noctypes.NodeID) *fab {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	net := transport.NewCrossbar(clk, transport.NetConfig{LegacyLock: true, BufDepth: 16}, nodes)
	amap := core.NewAddressMap()
	amap.MustAdd("mem", memBase, memSize, slaveNode)
	amap.Freeze()
	return &fab{k: k, clk: clk, net: net, amap: amap, store: mem.NewBacking(memSize)}
}

func (f *fab) run(t *testing.T, max int, done func() bool) {
	t.Helper()
	for c := 0; c < max; c++ {
		if done() {
			return
		}
		f.clk.RunCycles(1)
	}
	t.Fatalf("condition not reached in %d cycles", max)
}

// services returns the full service set.
func allServices() core.ServiceSet { return core.ServiceSet{Exclusive: true, LegacyLock: true} }

// attachAXISlave puts an AXI memory behind an AXI slave NIU on node.
func (f *fab) attachAXISlave(node noctypes.NodeID) *AXISlave {
	port := axi.NewPort(f.clk, "slv.axi", 4)
	axi.NewMemory(f.clk, port, f.store, memBase, axi.MemoryConfig{Latency: 1})
	return NewAXISlave(f.clk, f.net, port, SlaveConfig{Node: node, Services: allServices()})
}

func masterCfg(node noctypes.NodeID) MasterConfig {
	return MasterConfig{
		Node: node, Services: allServices(),
		Table:    core.TableConfig{MaxOutstanding: 8, MaxTargets: 4},
		NumTags:  4,
		Priority: noctypes.PrioDefault,
	}
}

func TestAXIMasterOverFabric(t *testing.T) {
	f := newFab(2, 1, 2)
	port := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, port, nil)
	NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	var wr axi.Resp = 0xFF
	ip.Write(0, memBase+0x100, 4, axi.BurstIncr, want, func(r axi.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	if wr != axi.RespOKAY {
		t.Fatalf("write resp = %v", wr)
	}
	var got []byte
	ip.Read(1, memBase+0x100, 4, 4, axi.BurstIncr, func(res axi.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

func TestAXIDecodeError(t *testing.T) {
	f := newFab(2, 1, 2)
	port := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, port, nil)
	NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	var rr axi.Resp = 0xFF
	ip.Read(0, 0xDEAD_0000, 4, 2, axi.BurstIncr, func(res axi.ReadResult) { rr = res.Resp })
	f.run(t, 2000, func() bool { return rr != 0xFF })
	if rr != axi.RespDECERR {
		t.Fatalf("unmapped read resp = %v, want DECERR", rr)
	}
	var wr axi.Resp = 0xFF
	ip.Write(0, 0xDEAD_0000, 4, axi.BurstIncr, []byte{1, 2, 3, 4}, func(r axi.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	if wr != axi.RespDECERR {
		t.Fatalf("unmapped write resp = %v, want DECERR", wr)
	}
}

func TestAXIExclusiveOverFabric(t *testing.T) {
	f := newFab(3, 1, 2, 3)
	portA := axi.NewPort(f.clk, "mA", 4)
	ipA := axi.NewMaster(f.clk, portA, nil)
	NewAXIMaster(f.clk, f.net, f.amap, portA, masterCfg(1))
	portB := axi.NewPort(f.clk, "mB", 4)
	ipB := axi.NewMaster(f.clk, portB, nil)
	NewAXIMaster(f.clk, f.net, f.amap, portB, masterCfg(2))
	slv := f.attachAXISlave(3)

	// A reserves; B writes the location; A's exclusive write must fail.
	done := 0
	ipA.ReadExclusive(0, memBase+0x40, 4, 1, axi.BurstIncr, func(res axi.ReadResult) {
		if res.Resp != axi.RespEXOKAY {
			t.Errorf("exclusive read resp = %v", res.Resp)
		}
		done++
	})
	f.run(t, 2000, func() bool { return done == 1 })

	ipB.Write(7, memBase+0x40, 4, axi.BurstIncr, []byte{9, 9, 9, 9}, func(axi.Resp) { done++ })
	f.run(t, 2000, func() bool { return done == 2 })

	var exw axi.Resp = 0xFF
	ipA.WriteExclusive(0, memBase+0x40, 4, axi.BurstIncr, []byte{1, 1, 1, 1}, func(r axi.Resp) { exw = r })
	f.run(t, 2000, func() bool { return exw != 0xFF })
	if exw != axi.RespOKAY {
		t.Fatalf("exclusive write after intervening write = %v, want OKAY (fail)", exw)
	}
	if got := f.store.Read(0x40, 4); !bytes.Equal(got, []byte{9, 9, 9, 9}) {
		t.Fatalf("failed exclusive modified memory: %v", got)
	}
	if slv.Stats().ExclusiveNak != 1 {
		t.Fatalf("slave NIU monitor stats: %+v", slv.Stats())
	}

	// Undisturbed pair succeeds.
	var ex2 axi.Resp = 0xFF
	ipA.ReadExclusive(0, memBase+0x80, 4, 1, axi.BurstIncr, nil)
	ipA.WriteExclusive(0, memBase+0x80, 4, axi.BurstIncr, []byte{5, 5, 5, 5}, func(r axi.Resp) { ex2 = r })
	f.run(t, 2000, func() bool { return ex2 != 0xFF })
	if ex2 != axi.RespEXOKAY {
		t.Fatalf("undisturbed exclusive write = %v, want EXOKAY", ex2)
	}
	if st := slv.Stats(); st.ExclusiveOK != 1 || st.ExclusiveNak != 1 {
		t.Fatalf("slave NIU monitor stats: %+v", st)
	}
}

func TestAXIExclusiveServiceDisabledDemotes(t *testing.T) {
	f := newFab(2, 1, 2)
	port := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, port, nil)
	cfg := masterCfg(1)
	cfg.Services = core.ServiceSet{} // no exclusive service
	NewAXIMaster(f.clk, f.net, f.amap, port, cfg)
	f.attachAXISlave(2)

	var rr axi.Resp = 0xFF
	ip.ReadExclusive(0, memBase, 4, 1, axi.BurstIncr, func(res axi.ReadResult) { rr = res.Resp })
	f.run(t, 2000, func() bool { return rr != 0xFF })
	if rr != axi.RespOKAY {
		t.Fatalf("demoted exclusive read = %v, want OKAY", rr)
	}
}

func TestOCPMasterOverFabric(t *testing.T) {
	f := newFab(2, 1, 2)
	port := ocp.NewPort(f.clk, "m.ocp", 4)
	ip := ocp.NewMaster(f.clk, port)
	NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	want := []byte{0xCA, 0xFE, 0xBA, 0xBE, 1, 2, 3, 4}
	var wr ocp.SResp
	ip.WriteNonPosted(0, memBase+0x200, 4, ocp.SeqIncr, want, nil, func(s ocp.SResp) { wr = s })
	f.run(t, 2000, func() bool { return wr != 0 })
	if wr != ocp.RespDVA {
		t.Fatalf("WRNP resp = %v", wr)
	}
	var got []byte
	ip.Read(1, memBase+0x200, 4, 2, ocp.SeqIncr, func(res ocp.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v", got)
	}
}

func TestOCPPostedWriteOverFabric(t *testing.T) {
	f := newFab(2, 1, 2)
	port := ocp.NewPort(f.clk, "m.ocp", 4)
	ip := ocp.NewMaster(f.clk, port)
	mn := NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	accepted := false
	ip.Write(0, memBase+0x300, 4, ocp.SeqIncr, []byte{1, 2, 3, 4}, nil, func() { accepted = true })
	f.run(t, 2000, func() bool { return accepted })
	// Data lands even though no response exists.
	var got []byte
	ip.Read(0, memBase+0x300, 4, 1, ocp.SeqIncr, func(res ocp.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("posted write lost: %v", got)
	}
	if mn.Stats().Posted != 1 {
		t.Fatalf("posted counter = %d", mn.Stats().Posted)
	}
}

func TestOCPLazySyncAcrossProtocols(t *testing.T) {
	// OCP lazy sync and AXI exclusive share one slave-NIU monitor: an
	// OCP ReadLinked reservation must die when an AXI master writes the
	// location — VC-neutral synchronization, the paper's §3 punchline.
	f := newFab(3, 1, 2, 3)
	ocpPort := ocp.NewPort(f.clk, "m.ocp", 4)
	ocpIP := ocp.NewMaster(f.clk, ocpPort)
	NewOCPMaster(f.clk, f.net, f.amap, ocpPort, masterCfg(1))
	axiPort := axi.NewPort(f.clk, "m.axi", 4)
	axiIP := axi.NewMaster(f.clk, axiPort, nil)
	NewAXIMaster(f.clk, f.net, f.amap, axiPort, masterCfg(2))
	f.attachAXISlave(3)

	step := 0
	ocpIP.ReadLinked(0, memBase+0x500, 4, func(ocp.ReadResult) { step = 1 })
	f.run(t, 2000, func() bool { return step == 1 })

	axiIP.Write(3, memBase+0x500, 4, axi.BurstIncr, []byte{8, 8, 8, 8}, func(axi.Resp) { step = 2 })
	f.run(t, 2000, func() bool { return step == 2 })

	var wrc ocp.SResp
	ocpIP.WriteConditional(0, memBase+0x500, 4, []byte{1, 1, 1, 1}, func(s ocp.SResp) { wrc = s })
	f.run(t, 2000, func() bool { return wrc != 0 })
	if wrc != ocp.RespFAIL {
		t.Fatalf("WRC after AXI write = %v, want FAIL", wrc)
	}
}

func TestAHBMasterOverFabric(t *testing.T) {
	f := newFab(2, 1, 2)
	port := ahb.NewPort(f.clk, "m.ahb", 4)
	ip := ahb.NewMaster(f.clk, port, 2)
	NewAHBMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i * 3)
	}
	var wr ahb.Resp = 0xFF
	ip.Write(memBase+0x400, 4, ahb.BurstIncr4, data, func(r ahb.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	if wr != ahb.RespOkay {
		t.Fatalf("AHB write resp = %v", wr)
	}
	var got []byte
	ip.Read(memBase+0x400, 4, ahb.BurstIncr4, 0, func(res ahb.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, data) {
		t.Fatalf("AHB read back %v", got)
	}
}

func TestAHBLockedSequenceOverFabric(t *testing.T) {
	f := newFab(3, 1, 2, 3)
	portA := ahb.NewPort(f.clk, "mA", 4)
	ipA := ahb.NewMaster(f.clk, portA, 1)
	NewAHBMaster(f.clk, f.net, f.amap, portA, masterCfg(1))
	portB := ahb.NewPort(f.clk, "mB", 4)
	ipB := ahb.NewMaster(f.clk, portB, 1)
	NewAHBMaster(f.clk, f.net, f.amap, portB, masterCfg(2))
	f.attachAXISlave(3)

	// Seed the location.
	seeded := false
	ipA.Write(memBase+0x600, 4, ahb.BurstSingle, []byte{10, 0, 0, 0}, func(ahb.Resp) { seeded = true })
	f.run(t, 2000, func() bool { return seeded })

	// A runs a locked read-modify-write; B tries to write in between.
	var lockedVal []byte
	ipA.ReadLocked(memBase+0x600, 4, func(res ahb.ReadResult) { lockedVal = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return lockedVal != nil })

	bDone := false
	ipB.Write(memBase+0x600, 4, ahb.BurstSingle, []byte{99, 0, 0, 0}, func(ahb.Resp) { bDone = true })
	// B must NOT complete while the lock is held (its packet stalls at
	// the locked switch output).
	for c := 0; c < 100; c++ {
		f.clk.RunCycles(1)
	}
	if bDone {
		t.Fatal("victim write completed during locked sequence")
	}

	aDone := false
	ipA.WriteUnlock(memBase+0x600, 4, []byte{lockedVal[0] + 1, 0, 0, 0}, func(ahb.Resp) { aDone = true })
	f.run(t, 4000, func() bool { return aDone && bDone })

	// A's RMW happened atomically: final value is 99 (B came after) —
	// the key point is A's increment was not lost.
	got := f.store.Read(0x600, 4)
	if got[0] != 99 {
		t.Fatalf("final value %d, want 99 (B after A's atomic RMW)", got[0])
	}
}

func TestAHBLockWithoutServiceErrors(t *testing.T) {
	f := newFab(2, 1, 2)
	port := ahb.NewPort(f.clk, "m.ahb", 4)
	ip := ahb.NewMaster(f.clk, port, 1)
	cfg := masterCfg(1)
	cfg.Services = core.ServiceSet{Exclusive: true} // no LegacyLock
	NewAHBMaster(f.clk, f.net, f.amap, port, cfg)
	f.attachAXISlave(2)

	var rr ahb.Resp = 0xFF
	ip.ReadLocked(memBase, 4, func(res ahb.ReadResult) { rr = res.Resp })
	f.run(t, 2000, func() bool { return rr != 0xFF })
	if rr != ahb.RespError {
		t.Fatalf("locked read without service = %v, want ERROR", rr)
	}
}

func TestVCIMastersOverFabric(t *testing.T) {
	f := newFab(4, 1, 2, 3, 4)
	f.attachAXISlave(4)

	pport := vci.NewPPort(f.clk, "m.pvci", 4)
	pip := vci.NewPMaster(f.clk, pport)
	NewPVCIMaster(f.clk, f.net, f.amap, pport, masterCfg(1))

	bport := vci.NewBPort(f.clk, "m.bvci", 4)
	bip := vci.NewBMaster(f.clk, bport, 2)
	NewBVCIMaster(f.clk, f.net, f.amap, bport, masterCfg(2))

	aport := vci.NewAPort(f.clk, "m.avci", 4)
	aip := vci.NewAMaster(f.clk, aport)
	NewAVCIMaster(f.clk, f.net, f.amap, aport, masterCfg(3))

	done := 0
	pip.Write(memBase+0x700, []byte{1, 2, 3, 4}, func(err bool) {
		if err {
			t.Error("PVCI write errored")
		}
		done++
	})
	bip.Write(memBase+0x710, 4, []byte{5, 6, 7, 8, 9, 10, 11, 12}, nil, false, func(err bool) {
		if err {
			t.Error("BVCI write errored")
		}
		done++
	})
	aip.Write(3, memBase+0x720, 4, []byte{13, 14, 15, 16}, nil, false, func(err bool) {
		if err {
			t.Error("AVCI write errored")
		}
		done++
	})
	f.run(t, 4000, func() bool { return done == 3 })

	var pv, bv, av []byte
	pip.Read(memBase+0x700, 4, func(d []byte, _ bool) { pv = bytes.Clone(d) })
	bip.Read(memBase+0x710, 4, 2, false, func(d []byte, _ bool) { bv = bytes.Clone(d) })
	aip.Read(5, memBase+0x720, 4, 1, false, func(d []byte, _ bool) { av = bytes.Clone(d) })
	f.run(t, 4000, func() bool { return pv != nil && bv != nil && av != nil })

	if !bytes.Equal(pv, []byte{1, 2, 3, 4}) ||
		!bytes.Equal(bv, []byte{5, 6, 7, 8, 9, 10, 11, 12}) ||
		!bytes.Equal(av, []byte{13, 14, 15, 16}) {
		t.Fatalf("VCI read backs: %v %v %v", pv, bv, av)
	}
}

func TestPropMasterOverFabric(t *testing.T) {
	f := newFab(2, 1, 2)
	port := prop.NewPort(f.clk, "m.prop", 8)
	ip := prop.NewMaster(f.clk, port)
	NewPropMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	data := make([]byte, 200) // several bursts, partial tail
	for i := range data {
		data[i] = byte(i ^ 0x77)
	}
	ok := false
	ip.StreamWrite(1, memBase+0x2000, data, func(o bool) { ok = o })
	f.run(t, 5000, func() bool { return ok })

	var got []byte
	ip.StreamRead(2, memBase+0x2000, 200, func(d []byte) { got = bytes.Clone(d) })
	f.run(t, 5000, func() bool { return got != nil })
	if !bytes.Equal(got, data) {
		t.Fatal("prop stream round trip over fabric failed")
	}
}

// ---- cross-protocol slave targets ----

func TestAXIMasterToOCPSlave(t *testing.T) {
	f := newFab(2, 1, 2)
	mport := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, mport, nil)
	NewAXIMaster(f.clk, f.net, f.amap, mport, masterCfg(1))

	sport := ocp.NewPort(f.clk, "s.ocp", 4)
	ocp.NewMemory(f.clk, sport, f.store, memBase, ocp.MemoryConfig{Threads: 4})
	NewOCPSlave(f.clk, f.net, sport, 4, SlaveConfig{Node: 2, Services: allServices()})

	want := []byte{7, 7, 7, 7, 8, 8, 8, 8}
	var wr axi.Resp = 0xFF
	ip.Write(2, memBase+0x800, 4, axi.BurstIncr, want, func(r axi.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	var got []byte
	ip.Read(2, memBase+0x800, 4, 2, axi.BurstIncr, func(res axi.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("AXI->OCP slave round trip: %v", got)
	}
}

func TestOCPMasterToAHBSlave(t *testing.T) {
	f := newFab(2, 1, 2)
	mport := ocp.NewPort(f.clk, "m.ocp", 4)
	ip := ocp.NewMaster(f.clk, mport)
	NewOCPMaster(f.clk, f.net, f.amap, mport, masterCfg(1))

	sport := ahb.NewPort(f.clk, "s.ahb", 4)
	ahb.NewMemory(f.clk, sport, f.store, memBase, ahb.MemoryConfig{WaitStates: 1})
	NewAHBSlave(f.clk, f.net, sport, SlaveConfig{Node: 2, Services: allServices()})

	want := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	var wr ocp.SResp
	ip.WriteNonPosted(0, memBase+0x900, 4, ocp.SeqIncr, want, nil, func(s ocp.SResp) { wr = s })
	f.run(t, 2000, func() bool { return wr != 0 })
	var got []byte
	ip.Read(0, memBase+0x900, 4, 1, ocp.SeqIncr, func(res ocp.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("OCP->AHB slave round trip: %v", got)
	}
}

func TestAXIFixedBurstToAHBSlave(t *testing.T) {
	// AHB has no FIXED burst: the slave NIU adapts it into repeated
	// singles. The last beat must win, matching FIXED semantics.
	f := newFab(2, 1, 2)
	mport := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, mport, nil)
	NewAXIMaster(f.clk, f.net, f.amap, mport, masterCfg(1))

	sport := ahb.NewPort(f.clk, "s.ahb", 4)
	ahb.NewMemory(f.clk, sport, f.store, memBase, ahb.MemoryConfig{})
	NewAHBSlave(f.clk, f.net, sport, SlaveConfig{Node: 2, Services: allServices()})

	var wr axi.Resp = 0xFF
	ip.Write(0, memBase+0xA00, 4, axi.BurstFixed,
		[]byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, func(r axi.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	if got := f.store.Read(0xA00, 4); !bytes.Equal(got, []byte{3, 3, 3, 3}) {
		t.Fatalf("FIXED adaptation result: %v", got)
	}
}

func TestBigBurstToPVCISlave(t *testing.T) {
	// PVCI moves at most 4 bytes per transaction: a 32-byte AXI burst
	// becomes 8 word operations behind the slave NIU.
	f := newFab(2, 1, 2)
	mport := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, mport, nil)
	NewAXIMaster(f.clk, f.net, f.amap, mport, masterCfg(1))

	sport := vci.NewPPort(f.clk, "s.pvci", 8)
	vci.NewPMemory(f.clk, sport, f.store, memBase, 0)
	NewPVCISlave(f.clk, f.net, sport, SlaveConfig{Node: 2, Services: allServices(), MaxConcurrent: 2})

	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(0x10 + i)
	}
	var wr axi.Resp = 0xFF
	ip.Write(0, memBase+0xB00, 4, axi.BurstIncr, data, func(r axi.Resp) { wr = r })
	f.run(t, 4000, func() bool { return wr != 0xFF })
	var got []byte
	ip.Read(0, memBase+0xB00, 4, 8, axi.BurstIncr, func(res axi.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 4000, func() bool { return got != nil })
	if !bytes.Equal(got, data) {
		t.Fatalf("PVCI-split round trip: %v", got)
	}
}

func TestAHBMasterToBVCISlave(t *testing.T) {
	f := newFab(2, 1, 2)
	mport := ahb.NewPort(f.clk, "m.ahb", 4)
	ip := ahb.NewMaster(f.clk, mport, 2)
	NewAHBMaster(f.clk, f.net, f.amap, mport, masterCfg(1))

	sport := vci.NewBPort(f.clk, "s.bvci", 4)
	vci.NewBMemory(f.clk, sport, f.store, memBase, 1)
	NewBVCISlave(f.clk, f.net, sport, SlaveConfig{Node: 2, Services: allServices()})

	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i + 0x60)
	}
	var wr ahb.Resp = 0xFF
	ip.Write(memBase+0xC00, 4, ahb.BurstIncr8, data, func(r ahb.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	var got []byte
	ip.Read(memBase+0xC00, 4, ahb.BurstIncr8, 0, func(res ahb.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, data) {
		t.Fatalf("AHB->BVCI round trip: %v", got)
	}
}

func TestAVCISlaveOverFabric(t *testing.T) {
	f := newFab(2, 1, 2)
	mport := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, mport, nil)
	NewAXIMaster(f.clk, f.net, f.amap, mport, masterCfg(1))

	sport := vci.NewAPort(f.clk, "s.avci", 4)
	vci.NewAMemory(f.clk, sport, f.store, memBase, 1, false)
	NewAVCISlave(f.clk, f.net, sport, SlaveConfig{Node: 2, Services: allServices()})

	want := []byte{4, 3, 2, 1}
	var wr axi.Resp = 0xFF
	ip.Write(0, memBase+0xD00, 4, axi.BurstIncr, want, func(r axi.Resp) { wr = r })
	f.run(t, 2000, func() bool { return wr != 0xFF })
	var got []byte
	ip.Read(0, memBase+0xD00, 4, 1, axi.BurstIncr, func(res axi.ReadResult) { got = bytes.Clone(res.Data) })
	f.run(t, 2000, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("AVCI slave round trip: %v", got)
	}
}

func TestMasterNIUStatsAndTable(t *testing.T) {
	f := newFab(2, 1, 2)
	port := axi.NewPort(f.clk, "m.axi", 4)
	ip := axi.NewMaster(f.clk, port, nil)
	mn := NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)

	done := 0
	for i := 0; i < 10; i++ {
		ip.Read(i%4, memBase+uint64(i*16), 4, 2, axi.BurstIncr, func(axi.ReadResult) { done++ })
	}
	f.run(t, 4000, func() bool { return done == 10 })
	s := mn.Stats()
	if s.Issued != 10 || s.Completed != 10 {
		t.Fatalf("stats: %+v", s)
	}
	if s.PeakTable < 2 {
		t.Fatalf("peak table = %d, expected pipelining", s.PeakTable)
	}
	if mn.Table().Outstanding() != 0 {
		t.Fatal("table not drained")
	}
}

// TestLongBurstsSplitAtAXISlave sends bursts longer than an AXI burst
// (axi.MaxBeats) into an AXI target, whose slave NIU must split them
// instead of handing its AXI master a burst it cannot issue. Every
// master socket that can issue one writes and reads back a 517-beat
// INCR burst (three AXI bursts, the last one short); an OCP master also
// writes and reads a FIXED burst of that length and a 512-beat WRAP
// burst starting one beat into its window, each beat checked against
// the kind's mem.Burst.
func TestLongBurstsSplitAtAXISlave(t *testing.T) {
	const size, beats, off = 4, 2*axi.MaxBeats + 5, 0x4000
	// pattern's bytes repeat at no power-of-two distance a misplaced
	// part could land at.
	pattern := func(n, seed int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + i>>8 + seed)
		}
		return b
	}
	for _, m := range matrixMasters {
		if m.name == "axi" {
			continue // the AXI socket itself stops at axi.MaxBeats
		}
		t.Run(m.name+"/incr", func(t *testing.T) {
			f := newFab(2, 1, 2)
			ops := m.build(f)
			f.attachAXISlave(2)
			data := pattern(beats*size, 3)
			wrote, wrErr := false, false
			ops.write(memBase+off, data, func(err bool) { wrote, wrErr = true, err })
			f.run(t, 20_000, func() bool { return wrote })
			if got := f.store.Read(off, len(data)); wrErr || !bytes.Equal(got, data) {
				t.Fatalf("write answered error=%v; memory differs from the data written", wrErr)
			}
			var got []byte
			rdErr := false
			ops.read(memBase+off, beats, func(d []byte, err bool) { got, rdErr = bytes.Clone(d), err })
			f.run(t, 20_000, func() bool { return got != nil })
			if rdErr || !bytes.Equal(got, data) {
				t.Fatalf("read answered error=%v; %d bytes differ from the data written", rdErr, len(got))
			}
		})
	}
	for _, k := range []struct {
		name  string
		seq   ocp.BurstSeq
		beats int
		rule  mem.Burst
	}{
		{"fixed", ocp.SeqStrm, beats, mem.Burst{Fixed: true}},
		{"wrap", ocp.SeqWrap, 2 * axi.MaxBeats, mem.Burst{Wrap: 2 * axi.MaxBeats}},
	} {
		t.Run("ocp/"+k.name, func(t *testing.T) {
			const window = 2 * axi.MaxBeats * size
			const start = memBase + off + size
			f := newFab(2, 1, 2)
			port := ocp.NewPort(f.clk, "m.ocp", 4)
			ip := ocp.NewMaster(f.clk, port)
			NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1))
			f.attachAXISlave(2)
			want := pattern(window+size, 5) // the window and the word after it
			f.store.Write(off, want, nil)
			at := func(i int) int { return int(k.rule.Addr(start, size, i) - memBase - off) }

			var got []byte
			ip.Read(0, start, size, k.beats, k.seq, func(r ocp.ReadResult) { got = bytes.Clone(r.Data) })
			f.run(t, 20_000, func() bool { return got != nil })
			for i := 0; i < k.beats; i++ {
				if !bytes.Equal(got[i*size:(i+1)*size], want[at(i):at(i)+size]) {
					t.Fatalf("read beat %d holds % x, want % x", i, got[i*size:(i+1)*size], want[at(i):at(i)+size])
				}
			}

			data := pattern(k.beats*size, 11)
			var resp ocp.SResp
			ip.WriteNonPosted(0, start, size, k.seq, data, nil, func(s ocp.SResp) { resp = s })
			f.run(t, 20_000, func() bool { return resp != 0 })
			for i := 0; i < k.beats; i++ {
				copy(want[at(i):], data[i*size:(i+1)*size])
			}
			if resp != ocp.RespDVA || !bytes.Equal(f.store.Read(off, len(want)), want) {
				t.Fatalf("write answered %v; memory differs from the burst's beats", resp)
			}
		})
	}
}

// TestOverlongBurstPanicsAtTheMaster: core.Request.Len carries at most
// 65,535 beats. An OCP burst one beat past that (65,537 wraps to Len 1)
// must stop at the master NIU, naming the socket and the count, instead
// of reaching the slave as a one-beat write carrying 262,148 bytes or
// completing a read short with no error.
func TestOverlongBurstPanicsAtTheMaster(t *testing.T) {
	const size, beats = 4, 1<<16 + 1
	for _, write := range []bool{true, false} {
		name := map[bool]string{true: "write", false: "read"}[write]
		t.Run(name, func(t *testing.T) {
			f := newFab(2, 1, 2)
			port := ocp.NewPort(f.clk, "m.ocp", 4)
			ip := ocp.NewMaster(f.clk, port)
			NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1))
			f.attachAXISlave(2)
			finished := false
			if write {
				ip.WriteNonPosted(0, memBase, size, ocp.SeqIncr, make([]byte, beats*size), nil, func(ocp.SResp) { finished = true })
			} else {
				ip.Read(0, memBase, size, beats, ocp.SeqIncr, func(ocp.ReadResult) { finished = true })
			}
			var msg any
			func() {
				defer func() { msg = recover() }()
				f.run(t, 2*beats, func() bool { return finished })
			}()
			if s, _ := msg.(string); !strings.Contains(s, "OCP burst of 65537 beats") {
				t.Fatalf("overlong %s: finished %v, panic %v; want a panic at the master naming the OCP socket and 65537 beats", name, finished, msg)
			}
		})
	}
}

// TestPostedSparseWriteToAXISlave: a posted OCP write whose byte
// enables disable some bytes leaves those bytes untouched in an AXI
// target, as a non-posted one does.
func TestPostedSparseWriteToAXISlave(t *testing.T) {
	const off = 0x100
	f := newFab(2, 1, 2)
	port := ocp.NewPort(f.clk, "m.ocp", 4)
	ip := ocp.NewMaster(f.clk, port)
	NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	f.attachAXISlave(2)
	f.store.Write(off, []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xF0, 0xF1, 0xF2}, nil)
	_, writes := f.store.Accesses()
	ip.Write(0, memBase+off, 4, ocp.SeqIncr, []byte{1, 2, 3, 4, 5, 6, 7, 8},
		[]byte{0xFF, 0, 0, 0xFF, 0, 0xFF, 0xFF, 0}, nil)
	f.run(t, 8000, func() bool { _, w := f.store.Accesses(); return w > writes })
	want := []byte{1, 0xBB, 0xCC, 4, 0xEE, 6, 7, 0xF2}
	if got := f.store.Read(off, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("memory holds % x, want % x", got, want)
	}
}
