package niu

import (
	"gonoc/internal/core"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// ---------------------------------------------------------------- PVCI --

// PVCIMaster is the master-side NIU for a PVCI socket: single-beat,
// single-outstanding, fully ordered — the cheapest NIU in the family.
type PVCIMaster struct {
	*MasterEngine
}

// NewPVCIMaster creates the NIU on clk.
func NewPVCIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *vci.PPort, cfg MasterConfig) *PVCIMaster {
	if cfg.Table.MaxOutstanding == 0 {
		cfg.Table.MaxOutstanding = 1 // PVCI is single-outstanding by nature
	}
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, NewPVCIMasterAdapter(e, port), port.Req)
	return &PVCIMaster{e}
}

// NewPVCIMasterAdapter returns the master adapter of a PVCI socket,
// issuing into far.
func NewPVCIMasterAdapter(far FarSide, port *vci.PPort) MasterAdapter {
	return single(far, port.Req, port.Rsp, pvciRequest, pvciResponse)
}

func pvciRequest(preq vci.PReq, c *candidate) bool {
	if preq.Write {
		c.Req = core.Request{
			Cmd: core.CmdWrite, Addr: preq.Addr, Size: uint8(len(preq.Data)), Len: 1,
			Burst: core.BurstIncr, Data: preq.Data, BE: preq.BE,
		}
		return true
	}
	nBytes := preq.N
	if nBytes < 1 || nBytes > 4 {
		nBytes = 4
	}
	c.Req = core.Request{Cmd: core.CmdRead, Addr: preq.Addr, Size: uint8(nBytes), Len: 1, Burst: core.BurstIncr}
	return true
}

func pvciResponse(_ int, err bool, data []byte) vci.PRsp { return vci.PRsp{Data: data, Err: err} }

// PVCISlave is the slave-side NIU for a PVCI target. PVCI moves at most
// 4 bytes per transaction, so burst requests from richer sockets are
// split into word-sized operations — heavy adaptation, honestly costed.
type PVCISlave struct {
	*SlaveEngine
}

type pvciSlaveAdapter struct {
	eng *vci.PMaster
	execs[func(bool), func([]byte, bool)]
}

// NewPVCISlave creates the NIU on clk.
func NewPVCISlave(clk *sim.Clock, net *transport.Network, port *vci.PPort, cfg SlaveConfig) *PVCISlave {
	e := NewSlaveEngine(net, cfg)
	a := &pvciSlaveAdapter{eng: vci.NewPMaster(clk, port)}
	a.bind = flagCompletions
	e.Bind(clk, a)
	return &PVCISlave{e}
}

// Execute implements SlaveAdapter: each beat runs as one PVCI operation
// per word of it.
func (a *pvciSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	size := int(req.Size)
	data, be := heldWrite(req)
	wrote, read := a.exec(req, respond, int(req.Len)*((size+3)/4)).completions()
	for i := 0; i < int(req.Len); i++ {
		base := partAddr(req, i, 1)
		for off := 0; off < size; off += 4 {
			addr, lo, n := base+uint64(off), i*size+off, min(size-off, 4)
			switch {
			case req.Cmd.IsRead():
				a.eng.Read(addr, n, read)
			case be != nil:
				// PVCI write with byte enables travels as a masked write.
				a.eng.WriteBE(addr, data[lo:lo+n], be[lo:lo+n], wrote)
			default:
				a.eng.Write(addr, data[lo:lo+n], wrote)
			}
		}
	}
}

// ---------------------------------------------------------------- BVCI --

// BVCIMaster is the master-side NIU for a BVCI socket: bursts, fully
// ordered.
type BVCIMaster struct {
	*MasterEngine
}

// NewBVCIMaster creates the NIU on clk.
func NewBVCIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *vci.BPort, cfg MasterConfig) *BVCIMaster {
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, NewBVCIMasterAdapter(e, port), port.Req)
	return &BVCIMaster{e}
}

// NewBVCIMasterAdapter returns the master adapter of a BVCI socket,
// issuing into far.
func NewBVCIMasterAdapter(far FarSide, port *vci.BPort) MasterAdapter {
	return single(far, port.Req, port.Rsp, bvciRequest, bvciResponse)
}

// bvciRequest converts a BVCI burst; AVCI's carries a packet ID on top.
func bvciRequest(breq vci.BReq, c *candidate) bool {
	burst := core.BurstIncr
	if breq.Wrap {
		burst = core.BurstWrap
	}
	c.Req = core.Request{
		Cmd: core.CmdRead, Addr: breq.Addr, Size: breq.Size, Len: beatLen("VCI", breq.Beats), Burst: burst,
	}
	if breq.Op == vci.OpWrite {
		c.Req.Cmd, c.Req.Data, c.Req.BE = core.CmdWrite, breq.Data, breq.BE
	}
	return true
}

func bvciResponse(_ int, err bool, data []byte) vci.BRsp { return vci.BRsp{Data: data, Err: err} }

// BVCISlave is the slave-side NIU for a BVCI target IP.
type BVCISlave struct {
	*SlaveEngine
}

// vciSlaveAdapter executes checked requests as bursts on a BVCI or
// AVCI target socket; the two differ only in the packet ID, which
// BVCI's read and write drop.
type vciSlaveAdapter struct {
	read  func(id int, addr uint64, size uint8, beats int, wrap bool, cb func([]byte, bool))
	write func(id int, addr uint64, size uint8, data, be []byte, wrap bool, cb func(bool))
	execs[func(bool), func([]byte, bool)]
}

// NewBVCISlave creates the NIU on clk.
func NewBVCISlave(clk *sim.Clock, net *transport.Network, port *vci.BPort, cfg SlaveConfig) *BVCISlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, NewBVCISlaveAdapter(clk, port))
	return &BVCISlave{e}
}

// NewBVCISlaveAdapter returns the slave adapter of a BVCI target: it
// executes requests through a BVCI master engine of its own on clk.
func NewBVCISlaveAdapter(clk *sim.Clock, port *vci.BPort) SlaveAdapter {
	m := vci.NewBMaster(clk, port, 2)
	a := &vciSlaveAdapter{
		read: func(_ int, addr uint64, size uint8, beats int, wrap bool, cb func([]byte, bool)) {
			m.Read(addr, size, beats, wrap, cb)
		},
		write: func(_ int, addr uint64, size uint8, data, be []byte, wrap bool, cb func(bool)) {
			m.Write(addr, size, data, be, wrap, cb)
		},
	}
	a.bind = flagCompletions
	return a
}

// Execute implements SlaveAdapter. BVCI and AVCI wrap natively but have
// no FIXED burst: a fixed-address burst runs as one single-cell burst
// per beat, all on the request's ID.
func (a *vciSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	id := int(req.Src)<<8 | int(req.Tag)
	data, be := heldWrite(req)
	parts, beats := transfers(req, req.Burst != core.BurstFixed)
	wrote, read := a.exec(req, respond, parts).completions()
	wrap, n := req.Burst == core.BurstWrap, len(data)/parts
	for i := 0; i < parts; i++ {
		addr := partAddr(req, i, beats)
		if req.Cmd.IsRead() {
			a.read(id, addr, req.Size, beats, wrap, read)
		} else {
			a.write(id, addr, req.Size, partOf(data, i, n), partOf(be, i, n), wrap, wrote)
		}
	}
}

// ---------------------------------------------------------------- AVCI --

// AVCIMaster is the master-side NIU for an AVCI socket: packet IDs map
// onto NoC tags, out-of-order across IDs.
type AVCIMaster struct {
	*MasterEngine
}

// NewAVCIMaster creates the NIU on clk.
func NewAVCIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *vci.APort, cfg MasterConfig) *AVCIMaster {
	e := NewMasterEngine(net, amap, cfg, core.IDOrdered)
	e.Bind(clk, NewAVCIMasterAdapter(e, port), port.Req)
	return &AVCIMaster{e}
}

// NewAVCIMasterAdapter returns the master adapter of an AVCI socket,
// issuing into far.
func NewAVCIMasterAdapter(far FarSide, port *vci.APort) MasterAdapter {
	return single(far, port.Req, port.Rsp, avciRequest, avciResponse)
}

// avciRequest converts an AVCI burst; its packet ID is the ordering
// handle, which the response carries back.
func avciRequest(areq vci.AReq, c *candidate) bool {
	c.ProtoID = areq.ID
	return bvciRequest(areq.BReq, c)
}

func avciResponse(id int, err bool, data []byte) vci.ARsp {
	return vci.ARsp{BRsp: vci.BRsp{Data: data, Err: err}, ID: id}
}

// AVCISlave is the slave-side NIU for an AVCI target IP.
type AVCISlave struct {
	*SlaveEngine
}

// NewAVCISlave creates the NIU on clk.
func NewAVCISlave(clk *sim.Clock, net *transport.Network, port *vci.APort, cfg SlaveConfig) *AVCISlave {
	e := NewSlaveEngine(net, cfg)
	m := vci.NewAMaster(clk, port)
	a := &vciSlaveAdapter{read: m.Read, write: m.Write}
	a.bind = flagCompletions
	e.Bind(clk, a)
	return &AVCISlave{e}
}
