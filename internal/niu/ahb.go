package niu

import (
	"bytes"

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
	eng  *MasterEngine
	port *ahb.Port
	rspQ []ahb.Rsp
}

// NewAHBMaster creates the NIU and registers it on clk. AHB has no
// ordering handles: the model is always fully-ordered.
func NewAHBMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *ahb.Port, cfg MasterConfig) *AHBMaster {
	cfg.Ordering = OrderFully
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, &ahbMasterAdapter{eng: e, port: port})
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
		out.Data = bytes.Clone(rsp.Data)
	}
	a.rspQ = append(a.rspQ, out)
}

// StreamSocket implements MasterAdapter.
func (a *ahbMasterAdapter) StreamSocket() { a.rspQ = pushOne(a.rspQ, a.port.Rsp) }

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
		out.Data = make([]byte, c.Req.Bytes())
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
}

// NewAHBSlave creates the NIU on clk.
func NewAHBSlave(clk *sim.Clock, net *transport.Network, port *ahb.Port, cfg SlaveConfig) *AHBSlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, &ahbSlaveAdapter{eng: ahb.NewMaster(clk, port, 2)})
	return &AHBSlave{e}
}

// Execute implements SlaveAdapter.
func (a *ahbSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	r := req
	beats := int(req.Len)
	data, _ := heldWrite(req)
	if req.Burst == core.BurstFixed && beats > 1 {
		a.execFixed(r, beats, data, respond)
		return
	}
	burst, incr := ahb.BurstFor(req.Burst == core.BurstWrap, beats), 0
	if burst == ahb.BurstIncr {
		incr = beats // only undefined-length INCR carries its length
	}
	switch {
	case req.Cmd.IsRead():
		a.eng.Read(req.Addr, req.Size, burst, incr, func(res ahb.ReadResult) {
			a.reply(respond, statusFor(r, res.Resp != ahb.RespOkay), res.Data)
		})
	case req.Cmd == core.CmdWritePost:
		a.eng.Write(req.Addr, req.Size, burst, data, nil)
	default:
		a.eng.Write(req.Addr, req.Size, burst, data, func(resp ahb.Resp) {
			a.reply(respond, statusFor(r, resp != ahb.RespOkay), nil)
		})
	}
}

// execFixed adapts a FIXED burst into repeated SINGLE transfers of data,
// the request's write bytes.
func (a *ahbSlaveAdapter) execFixed(r *core.Request, beats int, data []byte, respond func(*core.Response)) {
	s := int(r.Size)
	if r.Cmd.IsRead() {
		got := make([]byte, 0, beats*s)
		remaining := beats
		for i := 0; i < beats; i++ {
			a.eng.Read(r.Addr, r.Size, ahb.BurstSingle, 0, func(res ahb.ReadResult) {
				got = append(got, res.Data...)
				remaining--
				if remaining == 0 {
					a.reply(respond, statusFor(r, false), got)
				}
			})
		}
		return
	}
	remaining := beats
	for i := 0; i < beats; i++ {
		beat := data[i*s : (i+1)*s]
		cb := func(ahb.Resp) {
			remaining--
			if remaining == 0 && r.Cmd.ExpectsResponse() {
				a.reply(respond, statusFor(r, false), nil)
			}
		}
		if !r.Cmd.ExpectsResponse() {
			cb = nil
		}
		a.eng.Write(r.Addr, r.Size, ahb.BurstSingle, beat, cb)
	}
}
