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
// expressed: core.BeatAddr wraps at Len*Size, so a wrap burst is only
// representable when the BTE modulo equals the beat count — anything
// else would silently execute with the wrong wrap window.
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

type wbMasterAdapter struct {
	eng     *MasterEngine
	port    *wishbone.Port
	rspQ    []wishbone.Rsp
	rspBufs readBufs // rspQ's read data
}

// NewWBMaster creates the NIU on clk. WISHBONE has no ordering handles:
// the model is always fully-ordered.
func NewWBMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *wishbone.Port, cfg MasterConfig) *WBMaster {
	cfg.Ordering = OrderFully
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, &wbMasterAdapter{eng: e, port: port, rspBufs: newReadBufs(port.Rsp.Cap())})
	e.wake.Consumes(port.Req)
	return &WBMaster{e}
}

// Idle implements sim.Idler.
func (a *wbMasterAdapter) Idle() bool { return a.port.Req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter.
func (a *wbMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	out := wishbone.Rsp{Err: !rsp.Status.OK()}
	if !entry.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(rsp.Data, 0)
	}
	a.rspQ = append(a.rspQ, out)
}

// StreamSocket implements MasterAdapter.
func (a *wbMasterAdapter) StreamSocket() {
	if len(a.rspQ) > 0 && a.port.Rsp.Push(a.rspQ[0]) {
		a.rspBufs.pushed(a.rspQ[0].Data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
	}
}

// queueErr answers a cycle of beats×size bytes locally with ERR_I
// (zero-padded data for reads) — the one error shape shared by decode
// errors, disabled services, and unexpressible wrap windows.
func (a *wbMasterAdapter) queueErr(write bool, beats, size int) {
	out := wishbone.Rsp{Err: true}
	if !write {
		out.Data = a.rspBufs.hold(nil, beats*size)
	}
	a.rspQ = append(a.rspQ, out)
}

// PumpRequests implements MasterAdapter.
func (a *wbMasterAdapter) PumpRequests(cycle int64) { a.eng.PumpOne(cycle, a) }

// Peek implements SocketHead.
func (a *wbMasterAdapter) Peek(c *Candidate) bool {
	cyc, ok := a.port.Req.Peek()
	if !ok {
		return false
	}
	burst, exprOK := wbCTIToCore(cyc)
	if !exprOK {
		// The wrap window is not expressible on the fabric: refuse the
		// cycle loudly (ERR_I) instead of corrupting addresses.
		a.port.Req.Pop()
		a.queueErr(cyc.Write, cyc.Beats, int(cyc.Size))
		return false
	}
	c.Req = core.Request{
		Cmd: core.CmdRead, Addr: cyc.Addr, Size: cyc.Size, Len: uint16(cyc.Beats),
		Burst: burst,
	}
	if cyc.Write {
		c.Req.Cmd, c.Req.Data, c.Req.BE = core.CmdWrite, cyc.Data, cyc.Sel
	}
	return true
}

// Pop implements SocketHead.
func (a *wbMasterAdapter) Pop() { a.port.Req.Pop() }

// Refuse implements SocketHead: WISHBONE signals both decode errors and
// disabled services as ERR_I on the socket.
func (a *wbMasterAdapter) Refuse(c *Candidate) {
	a.queueErr(c.Req.Cmd.IsWrite(), int(c.Req.Len), int(c.Req.Size))
}

// WBSlave is the slave-side NIU for a WISHBONE target IP. Wrap bursts
// outside the BTE vocabulary (e.g. an AXI 2-beat wrap) are adapted into
// per-beat classic cycles at explicitly wrapped addresses.
type WBSlave struct {
	*SlaveEngine
}

type wbSlaveAdapter struct {
	eng *wishbone.Master
	flagExecs
}

// NewWBSlave creates the NIU on clk.
func NewWBSlave(clk *sim.Clock, net *transport.Network, port *wishbone.Port, cfg SlaveConfig) *WBSlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, &wbSlaveAdapter{eng: wishbone.NewMaster(clk, port)})
	return &WBSlave{e}
}

// Execute implements SlaveAdapter. A wrap burst the BTE vocabulary
// cannot express runs as one classic cycle per beat, at explicitly
// wrapped addresses.
func (a *wbSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	beats := int(req.Len)
	data, sel := heldWrite(req)
	cti, bte, ok := coreBurstToWB(req.Burst, beats)
	cycles, n := 1, beats // cycles, and beats per cycle
	if !ok {
		cti, bte, cycles, n = wishbone.Classic, wishbone.Linear, beats, 1
	}
	var x *flagExec
	if req.Cmd.ExpectsResponse() {
		x = a.exec(req.Cmd, respond, cycles)
	}
	var wrote func(bool)
	if x != nil {
		wrote = x.wrote
	}
	span := n * int(req.Size)
	for i := 0; i < cycles; i++ {
		addr := core.BeatAddr(req.Burst, req.Addr, req.Size, req.Len, i*n)
		lo, hi := i*span, (i+1)*span
		switch {
		case req.Cmd.IsRead():
			a.eng.Read(addr, req.Size, n, cti, bte, x.read)
		case sel != nil:
			a.eng.WriteSel(addr, req.Size, data[lo:hi], sel[lo:hi], cti, bte, wrote)
		default:
			a.eng.Write(addr, req.Size, data[lo:hi], cti, bte, wrote)
		}
	}
}
