package experiments

import (
	"gonoc/internal/area"
	"gonoc/internal/core"
	"gonoc/internal/ip"
	"gonoc/internal/mem"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

// E11Result carries the Wishbone-adapter comparison so tests and
// benchmarks can assert shape.
type E11Result struct {
	Tables []*stats.Table
	// MeanLat is the mean write+read round-trip latency (cycles) per
	// master protocol against an identical AXI memory slave.
	MeanLat map[string]float64
	// Gates holds master-NIU gate estimates at identical scaling knobs.
	Gates map[string]int
	// Wishbone burst-mode contrast: mean 8-beat read latency against a
	// classic (handshake-per-beat) vs registered-feedback slave.
	ClassicReadLat, RegFeedbackReadLat float64
}

// e11Fab is the minimal two-node rig every E11 measurement runs on.
type e11Fab struct {
	clk  *sim.Clock
	net  *transport.Network
	amap *core.AddressMap
}

const e11Base, e11Size = 0x1000_0000, 1 << 20

func newE11Fab() *e11Fab {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "e11", sim.Nanosecond, 0)
	net := transport.NewCrossbar(clk, transport.NetConfig{BufDepth: 16}, []noctypes.NodeID{1, 2})
	amap := core.NewAddressMap()
	amap.MustAdd("mem", e11Base, e11Size, 2)
	amap.Freeze()
	return &e11Fab{clk: clk, net: net, amap: amap}
}

func e11MasterCfg() niu.MasterConfig {
	return niu.MasterConfig{Node: 1, Table: core.TableConfig{MaxOutstanding: 8, MaxTargets: 4}, NumTags: 4}
}

// e11Lat drives one master protocol through its NIU against an
// identical AXI memory slave: n sequential (write, read-back) pairs of
// 8x4-byte bursts, returning mean round-trip cycles. The rig mirrors
// the pairing-matrix fixture, so the only variable between rows is the
// master-side adapter.
func e11Lat(proto string, n int) float64 {
	f := newE11Fab()

	var sock ip.Socket
	switch proto {
	case "wb":
		port := wishbone.NewPort(f.clk, "m.wb", 4)
		sock = ip.WB(wishbone.NewMaster(f.clk, port))
		niu.NewWBMaster(f.clk, f.net, f.amap, port, e11MasterCfg())
	case "ahb":
		port := ahb.NewPort(f.clk, "m.ahb", 4)
		sock = ip.AHB(ahb.NewMaster(f.clk, port, 2))
		niu.NewAHBMaster(f.clk, f.net, f.amap, port, e11MasterCfg())
	case "bvci":
		port := vci.NewBPort(f.clk, "m.bvci", 4)
		sock = ip.BVCI(vci.NewBMaster(f.clk, port, 2))
		niu.NewBVCIMaster(f.clk, f.net, f.amap, port, e11MasterCfg())
	default:
		panic("e11: unknown protocol " + proto)
	}

	// Identical slave for every master protocol.
	sport := axi.NewPort(f.clk, "s.axi", 4)
	axi.NewMemory(f.clk, sport, mem.NewBacking(e11Size), e11Base, axi.MemoryConfig{Latency: 2})
	niu.NewAXISlave(f.clk, f.net, sport, niu.SlaveConfig{Node: 2})

	var lat stats.Latency
	done := 0
	for i := 0; i < n; i++ {
		addr := uint64(e11Base + i*64)
		data := make([]byte, 32)
		for j := range data {
			data[j] = byte(i + j)
		}
		start := f.clk.Cycle() // engines queue immediately; latency includes queueing
		sock.Write(0, addr, 4, data, func([]byte, bool) {
			sock.Read(0, addr, 4, 8, func([]byte, bool) {
				lat.Record(f.clk.Cycle() - start)
				done++
			})
		})
	}
	runUntil(f.clk, func() bool { return done == n }, 1_000_000)
	return lat.Mean()
}

// e11WBReadLat measures mean 8-beat read latency from a Wishbone master
// NIU to a Wishbone memory slave with or without registered-feedback
// burst support.
func e11WBReadLat(regFeedback bool, n int) float64 {
	f := newE11Fab()
	port := wishbone.NewPort(f.clk, "m.wb", 4)
	sock := ip.WB(wishbone.NewMaster(f.clk, port))
	niu.NewWBMaster(f.clk, f.net, f.amap, port, e11MasterCfg())

	sport := wishbone.NewPort(f.clk, "s.wb", 4)
	wishbone.NewMemory(f.clk, sport, mem.NewBacking(e11Size), e11Base,
		wishbone.MemoryConfig{Latency: 2, RegisteredFeedback: regFeedback})
	niu.NewWBSlave(f.clk, f.net, sport, niu.SlaveConfig{Node: 2})

	var lat stats.Latency
	done := 0
	for i := 0; i < n; i++ {
		addr := uint64(e11Base + i*64)
		start := f.clk.Cycle()
		sock.Read(0, addr, 4, 8, func([]byte, bool) {
			lat.Record(f.clk.Cycle() - start)
			done++
		})
	}
	runUntil(f.clk, func() bool { return done == n }, 1_000_000)
	return lat.Mean()
}

// E11WishboneAdapter is the Soliman-style drop-in proof quantified: the
// Wishbone NIU — written against the protocol-neutral engine after the
// five legacy protocols were ported onto it — is compared with AHB and
// BVCI on NIU gate cost and on end-to-end latency against an identical
// slave, and its own classic vs registered-feedback burst cycles are
// contrasted. seed is accepted for suite uniformity; the measurement is
// deterministic.
func E11WishboneAdapter(seed int64) E11Result {
	_ = seed
	res := E11Result{MeanLat: map[string]float64{}, Gates: map[string]int{}}

	cost := stats.NewTable("E11 — Wishbone adapter vs AHB/BVCI: NIU gate estimates (same scaling knobs)",
		"protocol", "ordering", "master NIU gates", "slave NIU gates")
	for _, p := range []struct {
		name  string
		proto area.Protocol
	}{{"wb", area.ProtoWB}, {"ahb", area.ProtoAHB}, {"bvci", area.ProtoBVCI}} {
		mg := area.MasterNIUGates(p.proto, core.FullyOrdered, 1, 8, 4)
		sg := area.SlaveNIUGates(p.proto, 4, true, 8)
		res.Gates[p.name] = mg
		cost.AddRow(p.name, "fully-ordered", mg, sg)
	}

	lat := stats.NewTable("E11 — end-to-end write+read-back latency through the NIU (identical AXI slave)",
		"master protocol", "mean round trip (cyc)")
	for _, proto := range []string{"wb", "ahb", "bvci"} {
		m := e11Lat(proto, 20)
		res.MeanLat[proto] = m
		lat.AddRow(proto, m)
	}

	mode := stats.NewTable("E11 — Wishbone slave burst modes (8-beat reads, latency-2 memory)",
		"slave cycle style", "mean read lat (cyc)")
	res.ClassicReadLat = e11WBReadLat(false, 20)
	res.RegFeedbackReadLat = e11WBReadLat(true, 20)
	mode.AddRow("classic (handshake per beat)", res.ClassicReadLat)
	mode.AddRow("registered feedback (B.3 burst)", res.RegFeedbackReadLat)

	res.Tables = []*stats.Table{cost, lat, mode}
	return res
}
