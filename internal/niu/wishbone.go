package niu

import (
	"gonoc/internal/core"
	"gonoc/internal/protocols/wishbone"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// This file is the neutrality proof for the NIU engine, and the worked
// example for README.md's "Adding a protocol adapter": WISHBONE was
// ported onto the NoC after the engine was extracted, touching nothing
// but these two adapters — no core, transport, or engine changes.

// wbCTIToCore maps a WISHBONE cycle announcement onto the transaction
// layer's burst vocabulary. ok is false when the cycle cannot be
// expressed: a core WRAP burst wraps at its own Len beats (burstOf), so
// it is only representable when the BTE modulo equals the beat count —
// anything else would silently execute with the wrong wrap window.
func wbCTIToCore(c wishbone.Cycle) (kind core.BurstKind, ok bool) {
	switch {
	case c.CTI == wishbone.ConstAddr:
		return core.BurstFixed, true
	case c.BTE != wishbone.Linear && c.Beats > 1:
		if wishbone.WrapBeats(c.BTE) != c.Beats {
			return 0, false
		}
		return core.BurstWrap, true
	default:
		return core.BurstIncr, true
	}
}

// coreBurstToWB picks the WISHBONE announcement for a request; wrap
// lengths outside the BTE vocabulary (4/8/16) report ok=false and must
// be adapted beat by beat.
func coreBurstToWB(b core.BurstKind, beats int) (cti wishbone.CTI, bte wishbone.BTE, ok bool) {
	switch b {
	case core.BurstFixed:
		return wishbone.ConstAddr, wishbone.Linear, true
	case core.BurstWrap:
		switch beats {
		case 4:
			return wishbone.Incrementing, wishbone.Wrap4, true
		case 8:
			return wishbone.Incrementing, wishbone.Wrap8, true
		case 16:
			return wishbone.Incrementing, wishbone.Wrap16, true
		}
		return 0, 0, false
	default:
		if beats == 1 {
			return wishbone.Classic, wishbone.Linear, true
		}
		return wishbone.Incrementing, wishbone.Linear, true
	}
}

// WBMaster is the master-side NIU for a WISHBONE socket: fully ordered,
// single tag — the same cost class as AHB and BVCI.
type WBMaster struct {
	*MasterEngine
}

// NewWBMaster creates the NIU on clk. WISHBONE has no ordering handles:
// the model is always fully-ordered.
func NewWBMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *wishbone.Port, cfg MasterConfig) *WBMaster {
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, single(e, port.Req, port.Rsp, wbRequest, wbResponse), port.Req)
	return &WBMaster{e}
}

// wbRequest converts a WISHBONE cycle. A wrap window the fabric cannot
// express is refused with ERR_I instead of corrupting addresses, as are
// decode errors and disabled services.
func wbRequest(cyc wishbone.Cycle, c *candidate) bool {
	burst, ok := wbCTIToCore(cyc)
	c.Req = core.Request{
		Cmd: core.CmdRead, Addr: cyc.Addr, Size: cyc.Size, Len: beatLen("WISHBONE", cyc.Beats),
		Burst: burst,
	}
	if cyc.Write {
		c.Req.Cmd, c.Req.Data, c.Req.BE = core.CmdWrite, cyc.Data, cyc.Sel
	}
	return ok
}

func wbResponse(_ int, err bool, data []byte) wishbone.Rsp { return wishbone.Rsp{Data: data, Err: err} }

// WBSlave is the slave-side NIU for a WISHBONE target IP. Wrap bursts
// outside the BTE vocabulary (e.g. an AXI 2-beat wrap) are adapted into
// per-beat classic cycles at explicitly wrapped addresses.
type WBSlave struct {
	*SlaveEngine
}

type wbSlaveAdapter struct {
	eng *wishbone.Master
	execs[func(bool), func([]byte, bool)]
}

// NewWBSlave creates the NIU on clk.
func NewWBSlave(clk *sim.Clock, net *transport.Network, port *wishbone.Port, cfg SlaveConfig) *WBSlave {
	e := NewSlaveEngine(net, cfg)
	a := &wbSlaveAdapter{eng: wishbone.NewMaster(clk, port)}
	a.bind = flagCompletions
	e.Bind(clk, a)
	return &WBSlave{e}
}

// Execute implements SlaveAdapter. A wrap burst the BTE vocabulary
// cannot express runs as one classic cycle per beat, at explicitly
// wrapped addresses.
func (a *wbSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	data, sel := heldWrite(req)
	cti, bte, ok := coreBurstToWB(req.Burst, int(req.Len))
	if !ok {
		cti, bte = wishbone.Classic, wishbone.Linear
	}
	cycles, n := transfers(req, ok) // cycles, and beats per cycle
	wrote, read := a.exec(req, respond, cycles).completions()
	span := n * int(req.Size)
	for i := 0; i < cycles; i++ {
		addr := partAddr(req, i, n)
		lo, hi := i*span, (i+1)*span
		switch {
		case req.Cmd.IsRead():
			a.eng.Read(addr, req.Size, n, cti, bte, read)
		case sel != nil:
			a.eng.WriteSel(addr, req.Size, data[lo:hi], sel[lo:hi], cti, bte, wrote)
		default:
			a.eng.Write(addr, req.Size, data[lo:hi], cti, bte, wrote)
		}
	}
}
