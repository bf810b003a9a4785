package niu

import (
	"gonoc/internal/core"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

func ahbBurstToCore(b ahb.Burst) core.BurstKind {
	if b.Wraps() {
		return core.BurstWrap
	}
	return core.BurstIncr
}

// ahbRespFor maps a transaction status onto HRESP.
func ahbRespFor(st core.Status) ahb.Resp {
	if st.OK() {
		return ahb.RespOkay
	}
	return ahb.RespError
}

// AHBMaster is the master-side NIU for an AHB 2.0 socket: fully ordered,
// single tag, with HLOCK mapped onto the legacy-lock NoC service.
type AHBMaster struct {
	*MasterEngine
}

// ahbMasterAdapter converts between the AHB socket and the engine.
type ahbMasterAdapter struct {
	eng     *MasterEngine
	port    *ahb.Port
	rspQ    []ahb.Rsp
	rspBufs readBufs // rspQ's read data
}

// NewAHBMaster creates the NIU and registers it on clk. AHB has no
// ordering handles: the model is always fully-ordered.
func NewAHBMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *ahb.Port, cfg MasterConfig) *AHBMaster {
	cfg.Ordering = OrderFully
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, &ahbMasterAdapter{eng: e, port: port, rspBufs: newReadBufs(port.Rsp.Cap())})
	e.wake.Consumes(port.Req)
	return &AHBMaster{e}
}

// Idle implements sim.Idler.
func (a *ahbMasterAdapter) Idle() bool { return a.port.Req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter: responses come back strictly
// in order, one per cycle.
func (a *ahbMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	out := ahb.Rsp{Resp: ahbRespFor(rsp.Status)}
	if !entry.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(rsp.Data, 0)
	}
	a.rspQ = append(a.rspQ, out)
}

// StreamSocket implements MasterAdapter.
func (a *ahbMasterAdapter) StreamSocket() {
	if len(a.rspQ) > 0 && a.port.Rsp.Push(a.rspQ[0]) {
		a.rspBufs.pushed(a.rspQ[0].Data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
	}
}

// PumpRequests implements MasterAdapter.
func (a *ahbMasterAdapter) PumpRequests(cycle int64) { a.eng.PumpOne(cycle, a) }

// Peek implements SocketHead.
func (a *ahbMasterAdapter) Peek(c *Candidate) bool {
	hreq, ok := a.port.Req.Peek()
	if !ok {
		return false
	}
	var cmd core.Cmd
	switch {
	case hreq.Write && hreq.Lock && hreq.Unlock:
		cmd = core.CmdWriteUnlk
	case hreq.Write:
		cmd = core.CmdWrite
	case hreq.Lock:
		cmd = core.CmdReadLock
	default:
		cmd = core.CmdRead
	}
	c.Req = core.Request{
		Cmd: cmd, Addr: hreq.Addr, Size: hreq.Size, Len: uint16(hreq.NumBeats()),
		Burst:  ahbBurstToCore(hreq.Burst),
		Locked: hreq.Lock, Unlock: hreq.Unlock,
	}
	if hreq.Write {
		c.Req.Data = hreq.Data
	}
	return true
}

// Pop implements SocketHead.
func (a *ahbMasterAdapter) Pop() { a.port.Req.Pop() }

// Refuse implements SocketHead: AHB signals both decode errors and
// disabled services as ERROR on the socket (locked transfers without
// the LegacyLock service are refused here).
func (a *ahbMasterAdapter) Refuse(c *Candidate) {
	out := ahb.Rsp{Resp: ahb.RespError}
	if !c.Req.Cmd.IsWrite() {
		out.Data = a.rspBufs.hold(nil, c.Req.Bytes())
	}
	a.rspQ = append(a.rspQ, out)
}

// AHBSlave is the slave-side NIU for an AHB target IP. AHB has no FIXED
// burst: fixed-address bursts from other sockets are adapted into
// repeated SINGLE transfers — the kind of per-socket impedance matching
// NIUs exist for.
type AHBSlave struct {
	*SlaveEngine
}

// ahbSlaveAdapter executes checked requests against the target socket.
type ahbSlaveAdapter struct {
	eng *ahb.Master
	replier
	free []*ahbExec
}

// ahbExec is one request the AHB target is executing (see slaveExec).
type ahbExec struct {
	slaveExec
	read  func(ahb.ReadResult)
	wrote func(ahb.Resp)
}

// NewAHBSlave creates the NIU on clk.
func NewAHBSlave(clk *sim.Clock, net *transport.Network, port *ahb.Port, cfg SlaveConfig) *AHBSlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, &ahbSlaveAdapter{eng: ahb.NewMaster(clk, port, 2)})
	return &AHBSlave{e}
}

func (a *ahbSlaveAdapter) exec(cmd core.Cmd, respond func(*core.Response), parts int) *ahbExec {
	var x *ahbExec
	if n := len(a.free); n > 0 {
		x, a.free = a.free[n-1], a.free[:n-1]
	} else {
		x = &ahbExec{}
		x.rep, x.release = &a.replier, func() { a.free = append(a.free, x) }
		x.read = func(r ahb.ReadResult) { x.part(r.Data, r.Resp != ahb.RespOkay) }
		x.wrote = func(r ahb.Resp) { x.done(r != ahb.RespOkay) }
	}
	x.start(cmd, respond, parts)
	return x
}

// Execute implements SlaveAdapter. AHB has no FIXED burst: a
// fixed-address burst runs as one SINGLE transfer per beat.
func (a *ahbSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	beats := int(req.Len)
	data, _ := heldWrite(req)
	burst, incr, parts := ahb.BurstFor(req.Burst == core.BurstWrap, beats), 0, 1
	switch {
	case req.Burst == core.BurstFixed && beats > 1:
		burst, parts = ahb.BurstSingle, beats
	case burst == ahb.BurstIncr:
		incr = beats // only undefined-length INCR carries its length
	}
	var x *ahbExec
	if req.Cmd.ExpectsResponse() {
		x = a.exec(req.Cmd, respond, parts)
	}
	var wrote func(ahb.Resp)
	if x != nil {
		wrote = x.wrote
	}
	n := len(data) / parts
	for i := 0; i < parts; i++ {
		if req.Cmd.IsRead() {
			a.eng.Read(req.Addr, req.Size, burst, incr, x.read)
		} else {
			a.eng.Write(req.Addr, req.Size, burst, data[i*n:(i+1)*n], wrote)
		}
	}
}
