package bus

import (
	"bytes"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
)

const memBase = 0x1000_0000

type busRig struct {
	k     *sim.Kernel
	clk   *sim.Clock
	b     *Bus
	amap  *core.AddressMap
	store *mem.Backing
}

func newBusRig() *busRig {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "bus", sim.Nanosecond, 0)
	amap := core.NewAddressMap()
	amap.MustAdd("mem", memBase, 1<<20, 100)
	amap.Freeze()
	r := &busRig{k: k, clk: clk, amap: amap, store: mem.NewBacking(1 << 20)}
	r.b = New(clk, amap)
	return r
}

// addAHBMemory attaches a native AHB memory slave at node 100.
func (r *busRig) addAHBMemory(waits int) {
	port := ahb.NewPort(r.clk, "slv", 2)
	ahb.NewMemory(r.clk, port, r.store, memBase, ahb.MemoryConfig{WaitStates: waits})
	r.b.AddSlave(100, port)
}

func (r *busRig) run(t *testing.T, max int, done func() bool) {
	t.Helper()
	for c := 0; c < max; c++ {
		if done() {
			return
		}
		r.clk.RunCycles(1)
	}
	t.Fatal("bus condition not reached")
}

func TestNativeAHBMasterOnBus(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(1)
	port := ahb.NewPort(r.clk, "m0", 2)
	ip := ahb.NewMaster(r.clk, port, 1)
	r.b.AddMaster(port)

	want := []byte{1, 2, 3, 4}
	var wr ahb.Resp = 0xFF
	ip.Write(memBase+0x10, 4, ahb.BurstSingle, want, func(resp ahb.Resp) { wr = resp })
	r.run(t, 200, func() bool { return wr != 0xFF })
	var got []byte
	ip.Read(memBase+0x10, 4, ahb.BurstSingle, 0, func(res ahb.ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("bus round trip: %v", got)
	}
}

func TestBusDefaultSlaveErrors(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(0)
	port := ahb.NewPort(r.clk, "m0", 2)
	ip := ahb.NewMaster(r.clk, port, 1)
	r.b.AddMaster(port)

	var rr ahb.Resp = 0xFF
	ip.Read(0xDEAD_0000, 4, ahb.BurstSingle, 0, func(res ahb.ReadResult) { rr = res.Resp })
	r.run(t, 200, func() bool { return rr != 0xFF })
	if rr != ahb.RespError {
		t.Fatalf("default slave resp = %v", rr)
	}
	if r.b.Stats().DecodeErrors != 1 {
		t.Fatal("decode error not counted")
	}
}

func TestBusSerializesMasters(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(3)
	portA := ahb.NewPort(r.clk, "mA", 2)
	ipA := ahb.NewMaster(r.clk, portA, 1)
	r.b.AddMaster(portA)
	portB := ahb.NewPort(r.clk, "mB", 2)
	ipB := ahb.NewMaster(r.clk, portB, 1)
	r.b.AddMaster(portB)

	done := 0
	for i := 0; i < 4; i++ {
		ipA.Read(memBase+uint64(i*8), 4, ahb.BurstSingle, 0, func(ahb.ReadResult) { done++ })
		ipB.Read(memBase+uint64(i*8+4), 4, ahb.BurstSingle, 0, func(ahb.ReadResult) { done++ })
	}
	r.run(t, 2000, func() bool { return done == 8 })
	s := r.b.Stats()
	if s.Grants[0] != 4 || s.Grants[1] != 4 {
		t.Fatalf("grants: %v", s.Grants)
	}
	if s.BusyCycles == 0 {
		t.Fatal("no busy accounting")
	}
}

func TestBusLockHoldsGrant(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(0)
	portA := ahb.NewPort(r.clk, "mA", 2)
	ipA := ahb.NewMaster(r.clk, portA, 1)
	r.b.AddMaster(portA)
	portB := ahb.NewPort(r.clk, "mB", 2)
	ipB := ahb.NewMaster(r.clk, portB, 1)
	r.b.AddMaster(portB)

	// Seed, then A locks and holds while B tries to write.
	seeded := false
	ipA.Write(memBase+0x20, 4, ahb.BurstSingle, []byte{5, 0, 0, 0}, func(ahb.Resp) { seeded = true })
	r.run(t, 200, func() bool { return seeded })

	var lockedVal []byte
	ipA.ReadLocked(memBase+0x20, 4, func(res ahb.ReadResult) { lockedVal = bytes.Clone(res.Data) })
	r.run(t, 200, func() bool { return lockedVal != nil })

	bDone := false
	ipB.Write(memBase+0x20, 4, ahb.BurstSingle, []byte{99, 0, 0, 0}, func(ahb.Resp) { bDone = true })
	for c := 0; c < 50; c++ {
		r.clk.RunCycles(1)
	}
	if bDone {
		t.Fatal("victim write completed while bus locked")
	}
	if r.b.LockOwner() != 0 {
		t.Fatalf("lock owner = %d", r.b.LockOwner())
	}

	aDone := false
	ipA.WriteUnlock(memBase+0x20, 4, []byte{lockedVal[0] + 1, 0, 0, 0}, func(ahb.Resp) { aDone = true })
	r.run(t, 500, func() bool { return aDone && bDone })
	if got := r.store.Read(0x20, 4); got[0] != 99 {
		t.Fatalf("final value %d, want 99", got[0])
	}
}

func TestAXIBridgeRoundTripAndDemotion(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(1)
	port := axi.NewPort(r.clk, "m.axi", 4)
	ip := axi.NewMaster(r.clk, port, nil)
	br := NewAXIBridge(r.clk, r.b, port)

	want := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	var wr axi.Resp = 0xFF
	ip.Write(3, memBase+0x40, 4, axi.BurstIncr, want, func(resp axi.Resp) { wr = resp })
	r.run(t, 500, func() bool { return wr != 0xFF })
	if wr != axi.RespOKAY {
		t.Fatalf("bridged write resp = %v", wr)
	}
	var got []byte
	ip.Read(5, memBase+0x40, 4, 2, axi.BurstIncr, func(res axi.ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 500, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("bridged read back: %v", got)
	}

	// Exclusive access cannot cross: demoted to OKAY, counted.
	var exRsp axi.Resp = 0xFF
	ip.ReadExclusive(1, memBase+0x40, 4, 1, axi.BurstIncr, func(res axi.ReadResult) { exRsp = res.Resp })
	r.run(t, 500, func() bool { return exRsp != 0xFF })
	if exRsp != axi.RespOKAY {
		t.Fatalf("bridged exclusive read = %v, want OKAY (demoted)", exRsp)
	}
	if br.Demoted() == 0 {
		t.Fatal("demotion not counted")
	}
}

func TestOCPBridgeLazySyncRefused(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(0)
	port := ocp.NewPort(r.clk, "m.ocp", 4)
	ip := ocp.NewMaster(r.clk, port)
	NewOCPBridge(r.clk, r.b, port)

	var wrc ocp.SResp
	ip.WriteConditional(0, memBase+0x50, 4, []byte{1, 1, 1, 1}, func(s ocp.SResp) { wrc = s })
	r.run(t, 500, func() bool { return wrc != 0 })
	if wrc != ocp.RespFAIL {
		t.Fatalf("bridged WRC = %v, want FAIL", wrc)
	}
	// Plain traffic still works.
	var wr ocp.SResp
	ip.WriteNonPosted(0, memBase+0x54, 4, ocp.SeqIncr, []byte{2, 2, 2, 2}, nil, func(s ocp.SResp) { wr = s })
	r.run(t, 500, func() bool { return wr != 0 })
	if wr != ocp.RespDVA {
		t.Fatalf("bridged WRNP = %v", wr)
	}
	var got []byte
	ip.Read(0, memBase+0x54, 4, 1, ocp.SeqIncr, func(res ocp.ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 500, func() bool { return got != nil })
	if !bytes.Equal(got, []byte{2, 2, 2, 2}) {
		t.Fatalf("bridged OCP read: %v", got)
	}
}

func TestVCIBridges(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(0)

	pport := vci.NewPPort(r.clk, "m.pvci", 2)
	pip := vci.NewPMaster(r.clk, pport)
	NewPVCIBridge(r.clk, r.b, pport)

	bport := vci.NewBPort(r.clk, "m.bvci", 2)
	bip := vci.NewBMaster(r.clk, bport, 1)
	NewBVCIBridge(r.clk, r.b, bport)

	aport := vci.NewAPort(r.clk, "m.avci", 2)
	aip := vci.NewAMaster(r.clk, aport)
	NewAVCIBridge(r.clk, r.b, aport)

	done := 0
	pip.Write(memBase+0x60, []byte{1, 1, 1, 1}, func(bool) { done++ })
	bip.Write(memBase+0x70, 4, []byte{2, 2, 2, 2, 3, 3, 3, 3}, nil, false, func(bool) { done++ })
	aip.Write(9, memBase+0x80, 4, []byte{4, 4, 4, 4}, nil, false, func(bool) { done++ })
	r.run(t, 2000, func() bool { return done == 3 })

	var pv, bv, av []byte
	pip.Read(memBase+0x60, 4, func(d []byte, _ bool) { pv = bytes.Clone(d) })
	bip.Read(memBase+0x70, 4, 2, false, func(d []byte, _ bool) { bv = bytes.Clone(d) })
	aip.Read(2, memBase+0x80, 4, 1, false, func(d []byte, _ bool) { av = bytes.Clone(d) })
	r.run(t, 2000, func() bool { return pv != nil && bv != nil && av != nil })
	if !bytes.Equal(pv, []byte{1, 1, 1, 1}) ||
		!bytes.Equal(bv, []byte{2, 2, 2, 2, 3, 3, 3, 3}) ||
		!bytes.Equal(av, []byte{4, 4, 4, 4}) {
		t.Fatalf("VCI bridge round trips: %v %v %v", pv, bv, av)
	}
}

func TestPropBridgeStreams(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(0)
	port := prop.NewPort(r.clk, "m.prop", 8)
	ip := prop.NewMaster(r.clk, port)
	NewPropBridge(r.clk, r.b, port)

	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	ok := false
	ip.StreamWrite(1, memBase+0x100, data, func(o bool) { ok = o })
	r.run(t, 3000, func() bool { return ok })
	var got []byte
	ip.StreamRead(2, memBase+0x100, 100, func(d []byte) { got = bytes.Clone(d) })
	r.run(t, 3000, func() bool { return got != nil })
	if !bytes.Equal(got, data) {
		t.Fatal("prop bridge stream round trip failed")
	}
}

func TestSlaveBridges(t *testing.T) {
	// Bus with an AHB master and three bridged foreign slaves.
	k := sim.NewKernel()
	clk := sim.NewClock(k, "bus", sim.Nanosecond, 0)
	amap := core.NewAddressMap()
	amap.MustAdd("axi", 0x1000_0000, 0x1000, 1)
	amap.MustAdd("ocp", 0x2000_0000, 0x1000, 2)
	amap.MustAdd("bvci", 0x3000_0000, 0x1000, 3)
	amap.Freeze()
	b := New(clk, amap)

	axiStore := mem.NewBacking(0x1000)
	axiPort := axi.NewPort(clk, "s.axi", 4)
	axi.NewMemory(clk, axiPort, axiStore, 0x1000_0000, axi.MemoryConfig{Latency: 1})
	NewAXISlaveBridge(clk, b, 1, axiPort)

	ocpStore := mem.NewBacking(0x1000)
	ocpPort := ocp.NewPort(clk, "s.ocp", 4)
	ocp.NewMemory(clk, ocpPort, ocpStore, 0x2000_0000, ocp.MemoryConfig{Threads: 1})
	NewOCPSlaveBridge(clk, b, 2, ocpPort)

	bvciStore := mem.NewBacking(0x1000)
	bvciPort := vci.NewBPort(clk, "s.bvci", 4)
	vci.NewBMemory(clk, bvciPort, bvciStore, 0x3000_0000, 1)
	NewBVCISlaveBridge(clk, b, 3, bvciPort)

	mport := ahb.NewPort(clk, "m0", 2)
	ip := ahb.NewMaster(clk, mport, 1)
	b.AddMaster(mport)

	run := func(max int, done func() bool) {
		for c := 0; c < max; c++ {
			if done() {
				return
			}
			clk.RunCycles(1)
		}
		t.Fatal("condition not reached")
	}

	done := 0
	ip.Write(0x1000_0010, 4, ahb.BurstSingle, []byte{0xA, 0, 0, 0}, func(ahb.Resp) { done++ })
	ip.Write(0x2000_0010, 4, ahb.BurstSingle, []byte{0xB, 0, 0, 0}, func(ahb.Resp) { done++ })
	ip.Write(0x3000_0010, 4, ahb.BurstSingle, []byte{0xC, 0, 0, 0}, func(ahb.Resp) { done++ })
	run(3000, func() bool { return done == 3 })

	var a, o, v []byte
	ip.Read(0x1000_0010, 4, ahb.BurstSingle, 0, func(res ahb.ReadResult) { a = bytes.Clone(res.Data) })
	run(3000, func() bool { return a != nil })
	ip.Read(0x2000_0010, 4, ahb.BurstSingle, 0, func(res ahb.ReadResult) { o = bytes.Clone(res.Data) })
	run(3000, func() bool { return o != nil })
	ip.Read(0x3000_0010, 4, ahb.BurstSingle, 0, func(res ahb.ReadResult) { v = bytes.Clone(res.Data) })
	run(3000, func() bool { return v != nil })
	if a[0] != 0xA || o[0] != 0xB || v[0] != 0xC {
		t.Fatalf("slave bridge round trips: %v %v %v", a, o, v)
	}
}

// TestBridgeChargesLatencyBothWays times one 4-byte read of the native
// AHB memory, natively and from a BVCI master through its bridge. The
// bridged read pays the conversion latency on the way in and again on
// the way back, plus three hops the native read does not take: the BVCI
// request pipe, the wake of the bridge's bus-side engine and the BVCI
// response pipe.
func TestBridgeChargesLatencyBothWays(t *testing.T) {
	elapsed := func(bridged bool) int64 {
		r := newBusRig()
		r.addAHBMemory(1)
		var got []byte
		if bridged {
			port := vci.NewBPort(r.clk, "m.bvci", 2)
			ip := vci.NewBMaster(r.clk, port, 1)
			NewBVCIBridge(r.clk, r.b, port)
			ip.Read(memBase, 4, 1, false, func(d []byte, _ bool) { got = bytes.Clone(d) })
		} else {
			port := ahb.NewPort(r.clk, "m0", 2)
			ip := ahb.NewMaster(r.clk, port, 1)
			r.b.AddMaster(port)
			ip.Read(memBase, 4, ahb.BurstSingle, 0, func(res ahb.ReadResult) { got = bytes.Clone(res.Data) })
		}
		r.run(t, 100, func() bool { return got != nil })
		return r.clk.Cycle()
	}
	native, bridged := elapsed(false), elapsed(true)
	if want := native + 2*latency + 3; native != 6 || bridged != want {
		t.Fatalf("read took %d cycles native and %d bridged, want 6 and %d", native, bridged, want)
	}
}

func TestBridgeSerializationSlowerThanNative(t *testing.T) {
	// The same 8 reads take longer through a bridge (latency + single
	// outstanding) than natively — the paper's bridge-penalty claim in
	// unit form.
	elapsed := func(bridged bool) int64 {
		r := newBusRig()
		r.addAHBMemory(1)
		done := 0
		if bridged {
			port := axi.NewPort(r.clk, "m.axi", 4)
			ip := axi.NewMaster(r.clk, port, nil)
			NewAXIBridge(r.clk, r.b, port)
			for i := 0; i < 8; i++ {
				ip.Read(i, memBase+uint64(i*8), 4, 1, axi.BurstIncr, func(axi.ReadResult) { done++ })
			}
		} else {
			port := ahb.NewPort(r.clk, "m0", 2)
			ip := ahb.NewMaster(r.clk, port, 2)
			r.b.AddMaster(port)
			for i := 0; i < 8; i++ {
				ip.Read(memBase+uint64(i*8), 4, ahb.BurstSingle, 0, func(ahb.ReadResult) { done++ })
			}
		}
		r.run(t, 5000, func() bool { return done == 8 })
		return r.clk.Cycle()
	}
	native, bridged := elapsed(false), elapsed(true)
	if bridged <= native {
		t.Fatalf("bridge not slower: native=%d bridged=%d cycles", native, bridged)
	}
}

// TestBridgesKeepWrapOrder reads 4 beats of 4 bytes, wrapping at offset
// 8, through every bridge path that carries a wrap burst, from a memory
// holding bytes 0..15: each path must return bytes 8..15 then 0..7.
func TestBridgesKeepWrapOrder(t *testing.T) {
	const addr = memBase + 8
	want := []byte{8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7}
	targets := map[string]func(r *busRig){
		"ahb": func(r *busRig) { r.addAHBMemory(0) },
		"axi": func(r *busRig) {
			port := axi.NewPort(r.clk, "s.axi", 4)
			axi.NewMemory(r.clk, port, r.store, memBase, axi.MemoryConfig{Latency: 1})
			NewAXISlaveBridge(r.clk, r.b, 100, port)
		},
		"ocp": func(r *busRig) {
			port := ocp.NewPort(r.clk, "s.ocp", 4)
			ocp.NewMemory(r.clk, port, r.store, memBase, ocp.MemoryConfig{Threads: 1})
			NewOCPSlaveBridge(r.clk, r.b, 100, port)
		},
		"bvci": func(r *busRig) {
			port := vci.NewBPort(r.clk, "s.bvci", 4)
			vci.NewBMemory(r.clk, port, r.store, memBase, 1)
			NewBVCISlaveBridge(r.clk, r.b, 100, port)
		},
	}
	readers := map[string]func(r *busRig, done func([]byte)){
		"ahb": func(r *busRig, done func([]byte)) {
			port := ahb.NewPort(r.clk, "m.ahb", 2)
			ip := ahb.NewMaster(r.clk, port, 1)
			r.b.AddMaster(port)
			ip.Read(addr, 4, ahb.BurstWrap4, 0, func(res ahb.ReadResult) { done(res.Data) })
		},
		"axi": func(r *busRig, done func([]byte)) {
			port := axi.NewPort(r.clk, "m.axi", 4)
			ip := axi.NewMaster(r.clk, port, nil)
			NewAXIBridge(r.clk, r.b, port)
			ip.Read(0, addr, 4, 4, axi.BurstWrap, func(res axi.ReadResult) { done(res.Data) })
		},
		"ocp": func(r *busRig, done func([]byte)) {
			port := ocp.NewPort(r.clk, "m.ocp", 4)
			ip := ocp.NewMaster(r.clk, port)
			NewOCPBridge(r.clk, r.b, port)
			ip.Read(0, addr, 4, 4, ocp.SeqWrap, func(res ocp.ReadResult) { done(res.Data) })
		},
		"bvci": func(r *busRig, done func([]byte)) {
			port := vci.NewBPort(r.clk, "m.bvci", 2)
			ip := vci.NewBMaster(r.clk, port, 1)
			NewBVCIBridge(r.clk, r.b, port)
			ip.Read(addr, 4, 4, true, func(d []byte, _ bool) { done(d) })
		},
	}
	for _, p := range []struct{ reader, target string }{
		{"axi", "axi"}, {"ocp", "ahb"}, {"bvci", "ahb"}, {"ahb", "ocp"}, {"ahb", "bvci"},
	} {
		t.Run(p.reader+"-to-"+p.target, func(t *testing.T) {
			r := newBusRig()
			r.store.Write(0, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, nil)
			targets[p.target](r)
			var got []byte
			readers[p.reader](r, func(d []byte) { got = bytes.Clone(d) })
			r.run(t, 500, func() bool { return got != nil })
			if !bytes.Equal(got, want) {
				t.Fatalf("wrap read returned %v, want %v", got, want)
			}
		})
	}
}

// TestBridgesScreenByteEnables writes through each of the five bridged
// sockets that carry byte enables. The bus's AHB socket has none, so a
// write that disables some of its bytes must answer an error and leave
// memory as it was, one that disables every byte must answer OK and
// write nothing, as the NoC does, and neither may reach the bus; a
// write with every enable set crosses as usual.
func TestBridgesScreenByteEnables(t *testing.T) {
	const off = 0x200
	old := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xF0, 0xF1, 0xF2}
	type writeFn func(data, be []byte, done func(err bool))
	sockets := []struct {
		name  string
		burst bool // carries an 8-byte, two-beat write
		wire  func(r *busRig) writeFn
	}{
		{"axi", true, func(r *busRig) writeFn {
			port := axi.NewPort(r.clk, "m.axi", 4)
			ip := axi.NewMaster(r.clk, port, nil)
			NewAXIBridge(r.clk, r.b, port)
			return func(data, be []byte, done func(bool)) {
				ip.WriteStrobed(0, memBase+off, 4, axi.BurstIncr, data, be, func(rsp axi.Resp) { done(rsp != axi.RespOKAY) })
			}
		}},
		{"ocp", true, func(r *busRig) writeFn {
			port := ocp.NewPort(r.clk, "m.ocp", 4)
			ip := ocp.NewMaster(r.clk, port)
			NewOCPBridge(r.clk, r.b, port)
			return func(data, be []byte, done func(bool)) {
				ip.WriteNonPosted(0, memBase+off, 4, ocp.SeqIncr, data, be, func(s ocp.SResp) { done(s != ocp.RespDVA) })
			}
		}},
		{"pvci", false, func(r *busRig) writeFn {
			port := vci.NewPPort(r.clk, "m.pvci", 2)
			ip := vci.NewPMaster(r.clk, port)
			NewPVCIBridge(r.clk, r.b, port)
			return func(data, be []byte, done func(bool)) { ip.WriteBE(memBase+off, data, be, done) }
		}},
		{"bvci", true, func(r *busRig) writeFn {
			port := vci.NewBPort(r.clk, "m.bvci", 2)
			ip := vci.NewBMaster(r.clk, port, 1)
			NewBVCIBridge(r.clk, r.b, port)
			return func(data, be []byte, done func(bool)) { ip.Write(memBase+off, 4, data, be, false, done) }
		}},
		{"avci", true, func(r *busRig) writeFn {
			port := vci.NewAPort(r.clk, "m.avci", 2)
			ip := vci.NewAMaster(r.clk, port)
			NewAVCIBridge(r.clk, r.b, port)
			return func(data, be []byte, done func(bool)) { ip.Write(1, memBase+off, 4, data, be, false, done) }
		}},
	}
	cases := []struct {
		name    string
		data    []byte
		be      []byte
		burst   bool // needs a socket that carries two beats
		wantErr bool
		want    []byte // memory afterwards
	}{
		{"some disabled", []byte{1, 2, 3, 4}, []byte{0xFF, 0, 0, 0xFF}, false, true, old},
		{"second beat partly disabled", []byte{1, 2, 3, 4, 5, 6, 7, 8},
			[]byte{1, 1, 1, 1, 1, 0, 1, 1}, true, true, old},
		{"none enabled", []byte{1, 2, 3, 4, 5, 6, 7, 8}, make([]byte, 8), true, false, old},
		{"none enabled, one word", []byte{1, 2, 3, 4}, make([]byte, 4), false, false, old},
		{"all enabled", []byte{1, 2, 3, 4}, []byte{1, 0xFF, 1, 1}, false, false,
			[]byte{1, 2, 3, 4, 0xEE, 0xF0, 0xF1, 0xF2}},
	}
	for _, s := range sockets {
		for _, c := range cases {
			if c.burst && !s.burst {
				continue
			}
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				r := newBusRig()
				r.addAHBMemory(0)
				write := s.wire(r)
				r.store.Write(off, old, nil)
				_, writes := r.store.Accesses()
				answered, gotErr := false, false
				write(c.data, c.be, func(err bool) { answered, gotErr = true, err })
				r.run(t, 500, func() bool { return answered })
				if gotErr != c.wantErr {
					t.Fatalf("write answered error=%v, want %v", gotErr, c.wantErr)
				}
				if got := r.store.Read(off, len(old)); !bytes.Equal(got, c.want) {
					t.Fatalf("memory holds % x, want % x", got, c.want)
				}
				_, w := r.store.Accesses()
				if crossed := w != writes; crossed != (c.want[0] != old[0]) {
					t.Fatalf("bus took %d writes", w-writes)
				}
			})
		}
	}
}

// TestOCPBridgeDropsPartialPostedWrite: a posted OCP write takes no
// response, so one that disables some of its bytes is dropped without
// a bus transfer and counted as demoted.
func TestOCPBridgeDropsPartialPostedWrite(t *testing.T) {
	r := newBusRig()
	r.addAHBMemory(0)
	port := ocp.NewPort(r.clk, "m.ocp", 4)
	ip := ocp.NewMaster(r.clk, port)
	br := NewOCPBridge(r.clk, r.b, port)
	old := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	r.store.Write(0x300, old, nil)
	_, writes := r.store.Accesses()
	ip.Write(0, memBase+0x300, 4, ocp.SeqIncr, []byte{1, 2, 3, 4}, []byte{1, 0, 0, 1}, nil)
	r.clk.RunCycles(100)
	if got := r.store.Read(0x300, 4); !bytes.Equal(got, old) {
		t.Fatalf("memory holds % x, want % x", got, old)
	}
	if _, w := r.store.Accesses(); w != writes {
		t.Fatalf("bus took %d writes", w-writes)
	}
	if br.Demoted() != 1 {
		t.Fatalf("Demoted = %d, want 1", br.Demoted())
	}
}

// TestBridgeFeatureLossRules drives each Fig-2 feature-loss rule of a
// master bridge's Issue through every bridged socket that can express
// the feature: an exclusive read (AXI ReadExclusive, OCP ReadLinked)
// crosses as a plain read; an exclusive write (AXI WriteExclusive, OCP
// WriteConditional) is refused without crossing, answering OKAY on AXI
// and FAIL on OCP; a posted write crosses blocking and the socket hears
// nothing; a FIXED burst crosses as INCR; and a write with some bytes
// disabled is refused with an error, one with none enabled answers OK,
// neither crossing. Each case checks what the socket hears, memory
// afterwards, whether the bus carried the transaction, and Demoted.
func TestBridgeFeatureLossRules(t *testing.T) {
	const off = 0x400
	const addr = memBase + off
	old := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xF0, 0xF1, 0xF2}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	some := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0xFF, 0xFF}
	none := make([]byte, 8)
	type demoter interface{ Demoted() uint64 }
	axiBridge := func(r *busRig) (*axi.Master, demoter) {
		port := axi.NewPort(r.clk, "m.axi", 4)
		return axi.NewMaster(r.clk, port, nil), NewAXIBridge(r.clk, r.b, port)
	}
	ocpBridge := func(r *busRig) (*ocp.Master, demoter) {
		port := ocp.NewPort(r.clk, "m.ocp", 4)
		return ocp.NewMaster(r.clk, port), NewOCPBridge(r.clk, r.b, port)
	}
	flag := func(err bool) string {
		if err {
			return "error"
		}
		return "ok"
	}
	// vciWrite wires a VCI socket and issues a write with byte enables be.
	vciWrite := map[string]func(r *busRig, be []byte, answer func(string)) demoter{
		"pvci": func(r *busRig, be []byte, answer func(string)) demoter {
			port := vci.NewPPort(r.clk, "m.pvci", 2)
			ip := vci.NewPMaster(r.clk, port)
			br := NewPVCIBridge(r.clk, r.b, port)
			ip.WriteBE(addr, data[:4], be[:4], func(err bool) { answer(flag(err)) })
			return br
		},
		"bvci": func(r *busRig, be []byte, answer func(string)) demoter {
			port := vci.NewBPort(r.clk, "m.bvci", 2)
			ip := vci.NewBMaster(r.clk, port, 1)
			br := NewBVCIBridge(r.clk, r.b, port)
			ip.Write(addr, 4, data, be, false, func(err bool) { answer(flag(err)) })
			return br
		},
		"avci": func(r *busRig, be []byte, answer func(string)) demoter {
			port := vci.NewAPort(r.clk, "m.avci", 2)
			ip := vci.NewAMaster(r.clk, port)
			br := NewAVCIBridge(r.clk, r.b, port)
			ip.Write(3, addr, 4, data, be, false, func(err bool) { answer(flag(err)) })
			return br
		},
	}
	type rule struct {
		name    string
		issue   func(r *busRig, answer func(string)) demoter
		answer  string // what the socket hears; "" for nothing (a posted write)
		mem     []byte // memory at off afterwards
		crossed bool   // the bus carried the transaction
		demoted uint64
	}
	rules := []rule{
		{"axi/exclusive read", func(r *busRig, answer func(string)) demoter {
			ip, br := axiBridge(r)
			ip.ReadExclusive(0, addr, 4, 2, axi.BurstIncr, func(res axi.ReadResult) { answer(res.Resp.String()) })
			return br
		}, "OKAY", old, true, 1},
		{"axi/exclusive write", func(r *busRig, answer func(string)) demoter {
			ip, br := axiBridge(r)
			ip.WriteExclusive(0, addr, 4, axi.BurstIncr, data, func(resp axi.Resp) { answer(resp.String()) })
			return br
		}, "OKAY", old, false, 1},
		{"axi/fixed write", func(r *busRig, answer func(string)) demoter {
			ip, br := axiBridge(r)
			ip.Write(0, addr, 4, axi.BurstFixed, data, func(resp axi.Resp) { answer(resp.String()) })
			return br
		}, "OKAY", data, true, 1},
		{"axi/write", func(r *busRig, answer func(string)) demoter {
			ip, br := axiBridge(r)
			ip.Write(0, addr, 4, axi.BurstIncr, data, func(resp axi.Resp) { answer(resp.String()) })
			return br
		}, "OKAY", data, true, 0},
		{"axi/some bytes disabled", func(r *busRig, answer func(string)) demoter {
			ip, br := axiBridge(r)
			ip.WriteStrobed(0, addr, 4, axi.BurstIncr, data, some, func(resp axi.Resp) { answer(resp.String()) })
			return br
		}, "SLVERR", old, false, 1},
		{"axi/no byte enabled", func(r *busRig, answer func(string)) demoter {
			ip, br := axiBridge(r)
			ip.WriteStrobed(0, addr, 4, axi.BurstIncr, data, none, func(resp axi.Resp) { answer(resp.String()) })
			return br
		}, "OKAY", old, false, 0},
		{"ocp/ReadLinked", func(r *busRig, answer func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.ReadLinked(0, addr, 4, func(res ocp.ReadResult) { answer(res.Resp.String()) })
			return br
		}, "DVA", old, true, 1},
		{"ocp/WriteConditional", func(r *busRig, answer func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.WriteConditional(0, addr, 4, data[:4], func(s ocp.SResp) { answer(s.String()) })
			return br
		}, "FAIL", old, false, 1},
		{"ocp/posted write", func(r *busRig, _ func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.Write(0, addr, 4, ocp.SeqIncr, data, nil, nil)
			return br
		}, "", data, true, 1},
		{"ocp/posted write, some bytes disabled", func(r *busRig, _ func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.Write(0, addr, 4, ocp.SeqIncr, data, some, nil)
			return br
		}, "", old, false, 1},
		{"ocp/stream write", func(r *busRig, answer func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.WriteNonPosted(0, addr, 4, ocp.SeqStrm, data, nil, func(s ocp.SResp) { answer(s.String()) })
			return br
		}, "DVA", data, true, 1},
		{"ocp/some bytes disabled", func(r *busRig, answer func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.WriteNonPosted(0, addr, 4, ocp.SeqIncr, data, some, func(s ocp.SResp) { answer(s.String()) })
			return br
		}, "ERR", old, false, 1},
		{"ocp/no byte enabled", func(r *busRig, answer func(string)) demoter {
			ip, br := ocpBridge(r)
			ip.WriteNonPosted(0, addr, 4, ocp.SeqIncr, data, none, func(s ocp.SResp) { answer(s.String()) })
			return br
		}, "DVA", old, false, 0},
	}
	for _, s := range []string{"pvci", "bvci", "avci"} {
		write := vciWrite[s]
		rules = append(rules,
			rule{s + "/some bytes disabled", func(r *busRig, answer func(string)) demoter {
				return write(r, []byte{0xFF, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, answer)
			}, "error", old, false, 1},
			rule{s + "/no byte enabled", func(r *busRig, answer func(string)) demoter {
				return write(r, none, answer)
			}, "ok", old, false, 0})
	}
	for _, c := range rules {
		t.Run(c.name, func(t *testing.T) {
			r := newBusRig()
			r.addAHBMemory(0)
			r.store.Write(off, old, nil)
			rd, wr := r.store.Accesses()
			var got string
			br := c.issue(r, func(a string) { got = a })
			if c.answer == "" {
				r.clk.RunCycles(100) // a posted write: the socket hears nothing
			} else {
				r.run(t, 500, func() bool { return got != "" })
			}
			if got != c.answer {
				t.Errorf("socket heard %q, want %q", got, c.answer)
			}
			if rd2, wr2 := r.store.Accesses(); (rd2 != rd || wr2 != wr) != c.crossed {
				t.Errorf("bus took %d reads and %d writes, want crossed=%v", rd2-rd, wr2-wr, c.crossed)
			}
			if mem := r.store.Read(off, len(old)); !bytes.Equal(mem, c.mem) {
				t.Errorf("memory holds % x, want % x", mem, c.mem)
			}
			if d := br.Demoted(); d != c.demoted {
				t.Errorf("Demoted = %d, want %d", d, c.demoted)
			}
		})
	}
}
