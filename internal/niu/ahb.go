package niu

import (
	"bytes"

	"gonoc/internal/core"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// AHBMaster is the master-side NIU for an AHB 2.0 socket: fully ordered,
// single tag, with HLOCK mapped onto the legacy-lock NoC service.
type AHBMaster struct {
	*MasterEngine
}

// NewAHBMaster creates the NIU and registers it on clk. AHB has no
// ordering handles: the model is always fully-ordered.
func NewAHBMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *ahb.Port, cfg MasterConfig) *AHBMaster {
	e := NewMasterEngine(net, amap, cfg, core.FullyOrdered)
	e.Bind(clk, single(e, port.Req, port.Rsp, ahbRequest, ahbResponse), port.Req)
	return &AHBMaster{e}
}

// ahbRequest converts an AHB burst, with HLOCK/unlock mapped onto the
// locked commands. Locked transfers without the LegacyLock service are
// refused with ERROR, like decode errors.
func ahbRequest(hreq ahb.Req, c *candidate) bool {
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
	burst := core.BurstIncr
	if hreq.Burst.Wraps() {
		burst = core.BurstWrap
	}
	c.Req = core.Request{
		Cmd: cmd, Addr: hreq.Addr, Size: hreq.Size, Len: beatLen("AHB", hreq.NumBeats()),
		Burst: burst, Locked: hreq.Lock, Unlock: hreq.Unlock,
	}
	if hreq.Write {
		c.Req.Data = hreq.Data
	}
	return true
}

func ahbResponse(_ int, err bool, data []byte) ahb.Rsp {
	if err {
		return ahb.Rsp{Resp: ahb.RespError, Data: data}
	}
	return ahb.Rsp{Resp: ahb.RespOkay, Data: data}
}

// AHBSlave is the slave-side NIU for an AHB target IP. AHB has no FIXED
// burst and wraps only 4, 8 or 16 beats: other such bursts from other
// sockets are adapted into SINGLE transfers — the kind of per-socket
// impedance matching NIUs exist for.
type AHBSlave struct {
	*SlaveEngine
}

// ahbSlaveAdapter executes checked requests against the target socket.
type ahbSlaveAdapter struct {
	eng *ahb.Master
	execs[func(ahb.Resp), func(ahb.ReadResult)]
}

// NewAHBSlave creates the NIU on clk.
func NewAHBSlave(clk *sim.Clock, net *transport.Network, port *ahb.Port, cfg SlaveConfig) *AHBSlave {
	e := NewSlaveEngine(net, cfg)
	a := &ahbSlaveAdapter{eng: ahb.NewMaster(clk, port, 2)}
	a.bind = func(part func([]byte, bool)) (func(ahb.Resp), func(ahb.ReadResult)) {
		return func(r ahb.Resp) { part(nil, r != ahb.RespOkay) },
			func(r ahb.ReadResult) { part(r.Data, r.Resp != ahb.RespOkay) }
	}
	e.Bind(clk, a)
	return &AHBSlave{e}
}

// Execute implements SlaveAdapter. AHB has no FIXED burst and wraps
// only 4, 8 or 16 beats: any other multi-beat FIXED or WRAP burst runs
// as one SINGLE transfer per beat. AHB has no byte enables either, but
// it has byte transfers: a write with some bytes disabled runs as one
// byte-wide SINGLE write per enabled byte.
func (a *ahbSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	beats := int(req.Len)
	data, be := heldWrite(req)
	if bytes.IndexByte(be, 0) >= 0 {
		a.writeEnabled(req, respond, data, be)
		return
	}
	burst, incr := ahb.BurstFor(req.Burst == core.BurstWrap, beats), 0
	native := req.Burst == core.BurstIncr || burst.Wraps() || beats == 1
	switch {
	case !native:
		burst = ahb.BurstSingle
	case burst == ahb.BurstIncr:
		incr = beats // only undefined-length INCR carries its length
	}
	parts, per := transfers(req, native)
	wrote, read := a.exec(req, respond, parts).completions()
	n := len(data) / parts
	for i := 0; i < parts; i++ {
		addr := partAddr(req, i, per)
		if req.Cmd.IsRead() {
			a.eng.Read(addr, req.Size, burst, incr, read)
		} else {
			a.eng.Write(addr, req.Size, burst, data[i*n:(i+1)*n], wrote)
		}
	}
}

// writeEnabled writes each enabled byte of a sparse write as a one-byte
// SINGLE transfer at its beat's address plus its offset. A write with no
// byte enabled writes nothing and answers OK.
func (a *ahbSlaveAdapter) writeEnabled(req *core.Request, respond func(*core.Response), data, be []byte) {
	enabled := len(be) - bytes.Count(be, []byte{0})
	if enabled == 0 {
		if req.Cmd.ExpectsResponse() {
			a.reply(respond, statusFor(req.Cmd, false), nil)
		}
		return
	}
	wrote, _ := a.exec(req, respond, enabled).completions()
	size := int(req.Size)
	for j, e := range be {
		if e != 0 {
			addr := partAddr(req, j/size, 1) + uint64(j%size)
			a.eng.Write(addr, 1, ahb.BurstSingle, data[j:j+1], wrote)
		}
	}
}
