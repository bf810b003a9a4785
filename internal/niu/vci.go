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

type pvciMasterAdapter struct {
	eng     *MasterEngine
	port    *vci.PPort
	rspQ    []vci.PRsp
	rspBufs readBufs // rspQ's read data
}

// NewPVCIMaster creates the NIU on clk.
func NewPVCIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *vci.PPort, cfg MasterConfig) *PVCIMaster {
	cfg.Ordering = OrderFully
	if cfg.Table.MaxOutstanding == 0 {
		cfg.Table.MaxOutstanding = 1 // PVCI is single-outstanding by nature
	}
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, &pvciMasterAdapter{eng: e, port: port, rspBufs: newReadBufs(port.Rsp.Cap())})
	e.wake.Consumes(port.Req)
	return &PVCIMaster{e}
}

// Idle implements sim.Idler.
func (a *pvciMasterAdapter) Idle() bool { return a.port.Req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter.
func (a *pvciMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	out := vci.PRsp{Err: !rsp.Status.OK()}
	if !entry.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(rsp.Data, 0)
	}
	a.rspQ = append(a.rspQ, out)
}

// StreamSocket implements MasterAdapter.
func (a *pvciMasterAdapter) StreamSocket() {
	if len(a.rspQ) > 0 && a.port.Rsp.Push(a.rspQ[0]) {
		a.rspBufs.pushed(a.rspQ[0].Data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
	}
}

// PumpRequests implements MasterAdapter.
func (a *pvciMasterAdapter) PumpRequests(cycle int64) { a.eng.PumpOne(cycle, a) }

// Peek implements SocketHead.
func (a *pvciMasterAdapter) Peek(c *Candidate) bool {
	preq, ok := a.port.Req.Peek()
	if !ok {
		return false
	}
	if preq.Write {
		c.Req = core.Request{
			Cmd: core.CmdWrite, Addr: preq.Addr, Size: uint8(len(preq.Data)), Len: 1,
			Burst: core.BurstIncr, Data: preq.Data, BE: preq.BE,
		}
	} else {
		nBytes := preq.N
		if nBytes < 1 || nBytes > 4 {
			nBytes = 4
		}
		c.Req = core.Request{
			Cmd: core.CmdRead, Addr: preq.Addr, Size: uint8(nBytes), Len: 1, Burst: core.BurstIncr,
		}
	}
	return true
}

// Pop implements SocketHead.
func (a *pvciMasterAdapter) Pop() { a.port.Req.Pop() }

// Refuse implements SocketHead.
func (a *pvciMasterAdapter) Refuse(*Candidate) { a.rspQ = append(a.rspQ, vci.PRsp{Err: true}) }

// PVCISlave is the slave-side NIU for a PVCI target. PVCI moves at most
// 4 bytes per transaction, so burst requests from richer sockets are
// split into word-sized operations — heavy adaptation, honestly costed.
type PVCISlave struct {
	*SlaveEngine
}

type pvciSlaveAdapter struct {
	eng *vci.PMaster
	replier
}

// NewPVCISlave creates the NIU on clk.
func NewPVCISlave(clk *sim.Clock, net *transport.Network, port *vci.PPort, cfg SlaveConfig) *PVCISlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, &pvciSlaveAdapter{eng: vci.NewPMaster(clk, port)})
	return &PVCISlave{e}
}

// Execute implements SlaveAdapter.
func (a *pvciSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	r := req
	beats := int(req.Len)
	// Word-split each beat into <=4-byte PVCI operations.
	type op struct {
		addr uint64
		off  int
		n    int
	}
	var ops []op
	for i := 0; i < beats; i++ {
		base := core.BeatAddr(req.Burst, req.Addr, req.Size, req.Len, i)
		off := i * int(req.Size)
		for rem := int(req.Size); rem > 0; {
			chunk := rem
			if chunk > 4 {
				chunk = 4
			}
			ops = append(ops, op{addr: base + uint64(int(req.Size)-rem), off: off + int(req.Size) - rem, n: chunk})
			rem -= chunk
		}
	}
	if r.Cmd.IsRead() {
		data := make([]byte, beats*int(req.Size))
		remaining := len(ops)
		anyErr := false
		for _, o := range ops {
			o := o
			a.eng.Read(o.addr, o.n, func(d []byte, err bool) {
				copy(data[o.off:o.off+o.n], d)
				anyErr = anyErr || err
				remaining--
				if remaining == 0 {
					a.reply(respond, statusFor(r.Cmd, anyErr), data)
				}
			})
		}
		return
	}
	wdata, wbe := heldWrite(req)
	remaining := len(ops)
	anyErr := false
	for _, o := range ops {
		o := o
		var be []byte
		if wbe != nil {
			be = wbe[o.off : o.off+o.n]
		}
		cb := func(err bool) {
			anyErr = anyErr || err
			remaining--
			if remaining == 0 && r.Cmd.ExpectsResponse() {
				a.reply(respond, statusFor(r.Cmd, anyErr), nil)
			}
		}
		if !r.Cmd.ExpectsResponse() {
			cb = nil
		}
		data := wdata[o.off : o.off+o.n]
		if be != nil {
			// PVCI write with byte enables travels as a masked write.
			a.eng.WriteBE(o.addr, data, be, cb)
		} else {
			a.eng.Write(o.addr, data, cb)
		}
	}
}

// ---------------------------------------------------------------- BVCI --

// BVCIMaster is the master-side NIU for a BVCI socket: bursts, fully
// ordered.
type BVCIMaster struct {
	*MasterEngine
}

type bvciMasterAdapter struct {
	eng     *MasterEngine
	port    *vci.BPort
	rspQ    []vci.BRsp
	rspBufs readBufs // rspQ's read data
}

// NewBVCIMaster creates the NIU on clk.
func NewBVCIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *vci.BPort, cfg MasterConfig) *BVCIMaster {
	cfg.Ordering = OrderFully
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, &bvciMasterAdapter{eng: e, port: port, rspBufs: newReadBufs(port.Rsp.Cap())})
	e.wake.Consumes(port.Req)
	return &BVCIMaster{e}
}

// Idle implements sim.Idler.
func (a *bvciMasterAdapter) Idle() bool { return a.port.Req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter.
func (a *bvciMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	out := vci.BRsp{Err: !rsp.Status.OK()}
	if !entry.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(rsp.Data, 0)
	}
	a.rspQ = append(a.rspQ, out)
}

// StreamSocket implements MasterAdapter.
func (a *bvciMasterAdapter) StreamSocket() {
	if len(a.rspQ) > 0 && a.port.Rsp.Push(a.rspQ[0]) {
		a.rspBufs.pushed(a.rspQ[0].Data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
	}
}

// PumpRequests implements MasterAdapter.
func (a *bvciMasterAdapter) PumpRequests(cycle int64) { a.eng.PumpOne(cycle, a) }

// Peek implements SocketHead.
func (a *bvciMasterAdapter) Peek(c *Candidate) bool {
	breq, ok := a.port.Req.Peek()
	if !ok {
		return false
	}
	burst := core.BurstIncr
	if breq.Wrap {
		burst = core.BurstWrap
	}
	c.Req = core.Request{
		Cmd: core.CmdRead, Addr: breq.Addr, Size: breq.Size, Len: uint16(breq.Beats), Burst: burst,
	}
	if breq.Op == vci.OpWrite {
		c.Req.Cmd, c.Req.Data = core.CmdWrite, breq.Data
	}
	return true
}

// Pop implements SocketHead.
func (a *bvciMasterAdapter) Pop() { a.port.Req.Pop() }

// Refuse implements SocketHead.
func (a *bvciMasterAdapter) Refuse(c *Candidate) {
	out := vci.BRsp{Err: true}
	if !c.Req.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(nil, c.Req.Bytes())
	}
	a.rspQ = append(a.rspQ, out)
}

// BVCISlave is the slave-side NIU for a BVCI target IP.
type BVCISlave struct {
	*SlaveEngine
}

type bvciSlaveAdapter struct {
	eng *vci.BMaster
	flagExecs
}

// NewBVCISlave creates the NIU on clk.
func NewBVCISlave(clk *sim.Clock, net *transport.Network, port *vci.BPort, cfg SlaveConfig) *BVCISlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, &bvciSlaveAdapter{eng: vci.NewBMaster(clk, port, 2)})
	return &BVCISlave{e}
}

// Execute implements SlaveAdapter.
func (a *bvciSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	wrap := req.Burst == core.BurstWrap
	data, _ := heldWrite(req)
	switch {
	case req.Cmd.IsRead():
		a.eng.Read(req.Addr, req.Size, int(req.Len), wrap, a.exec(req.Cmd, respond, 1).read)
	case req.Cmd == core.CmdWritePost:
		a.eng.Write(req.Addr, req.Size, data, nil)
	default:
		a.eng.Write(req.Addr, req.Size, data, a.exec(req.Cmd, respond, 1).wrote)
	}
}

// ---------------------------------------------------------------- AVCI --

// AVCIMaster is the master-side NIU for an AVCI socket: packet IDs map
// onto NoC tags, out-of-order across IDs.
type AVCIMaster struct {
	*MasterEngine
}

type avciMasterAdapter struct {
	eng     *MasterEngine
	port    *vci.APort
	rspQ    []vci.ARsp
	rspBufs readBufs // rspQ's read data
}

// NewAVCIMaster creates the NIU on clk.
func NewAVCIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *vci.APort, cfg MasterConfig) *AVCIMaster {
	e := NewMasterEngine(net, amap, cfg, core.IDOrdered)
	e.Bind(clk, &avciMasterAdapter{eng: e, port: port, rspBufs: newReadBufs(port.Rsp.Cap())})
	e.wake.Consumes(port.Req)
	return &AVCIMaster{e}
}

// Idle implements sim.Idler.
func (a *avciMasterAdapter) Idle() bool { return a.port.Req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter. The entry's ProtoID is the
// packet ID the request was issued with.
func (a *avciMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	out := vci.ARsp{ID: entry.ProtoID}
	out.Err = !rsp.Status.OK()
	if !entry.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(rsp.Data, 0)
	}
	a.rspQ = append(a.rspQ, out)
}

// StreamSocket implements MasterAdapter.
func (a *avciMasterAdapter) StreamSocket() {
	if len(a.rspQ) > 0 && a.port.Rsp.Push(a.rspQ[0]) {
		a.rspBufs.pushed(a.rspQ[0].Data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
	}
}

// PumpRequests implements MasterAdapter.
func (a *avciMasterAdapter) PumpRequests(cycle int64) { a.eng.PumpOne(cycle, a) }

// Peek implements SocketHead.
func (a *avciMasterAdapter) Peek(c *Candidate) bool {
	areq, ok := a.port.Req.Peek()
	if !ok {
		return false
	}
	burst := core.BurstIncr
	if areq.Wrap {
		burst = core.BurstWrap
	}
	c.Req = core.Request{
		Cmd: core.CmdRead, Addr: areq.Addr, Size: areq.Size, Len: uint16(areq.Beats), Burst: burst,
	}
	if areq.Op == vci.OpWrite {
		c.Req.Cmd, c.Req.Data = core.CmdWrite, areq.Data
	}
	c.ProtoID = areq.ID
	return true
}

// Pop implements SocketHead.
func (a *avciMasterAdapter) Pop() { a.port.Req.Pop() }

// Refuse implements SocketHead.
func (a *avciMasterAdapter) Refuse(c *Candidate) {
	out := vci.ARsp{ID: c.ProtoID}
	out.Err = true
	if !c.Req.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(nil, c.Req.Bytes())
	}
	a.rspQ = append(a.rspQ, out)
}

// AVCISlave is the slave-side NIU for an AVCI target IP.
type AVCISlave struct {
	*SlaveEngine
}

type avciSlaveAdapter struct {
	eng *vci.AMaster
	replier
}

// NewAVCISlave creates the NIU on clk.
func NewAVCISlave(clk *sim.Clock, net *transport.Network, port *vci.APort, cfg SlaveConfig) *AVCISlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, &avciSlaveAdapter{eng: vci.NewAMaster(clk, port)})
	return &AVCISlave{e}
}

// Execute implements SlaveAdapter.
func (a *avciSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	r := req
	engID := int(req.Src)<<8 | int(req.Tag)
	data, _ := heldWrite(req)
	switch {
	case req.Cmd.IsRead():
		a.eng.Read(engID, req.Addr, req.Size, int(req.Len), func(d []byte, err bool) {
			a.reply(respond, statusFor(r.Cmd, err), d)
		})
	case req.Cmd == core.CmdWritePost:
		a.eng.Write(engID, req.Addr, req.Size, data, nil)
	default:
		a.eng.Write(engID, req.Addr, req.Size, data, func(err bool) {
			a.reply(respond, statusFor(r.Cmd, err), nil)
		})
	}
}
