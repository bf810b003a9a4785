package niu

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// axiProtoID qualifies an AXI transaction ID with its direction: read and
// write channels have independent ID spaces and independent ordering.
func axiProtoID(id int, write bool) int {
	p := id << 1
	if write {
		p |= 1
	}
	return p
}

// axiID recovers the AXI transaction ID from axiProtoID's handle.
func axiID(protoID int) int { return protoID >> 1 }

func axiBurstToCore(b axi.Burst) core.BurstKind {
	switch b {
	case axi.BurstFixed:
		return core.BurstFixed
	case axi.BurstWrap:
		return core.BurstWrap
	default:
		return core.BurstIncr
	}
}

func coreBurstToAXI(b core.BurstKind) axi.Burst {
	switch b {
	case core.BurstFixed:
		return axi.BurstFixed
	case core.BurstWrap:
		return axi.BurstWrap
	default:
		return axi.BurstIncr
	}
}

// axiRespFor maps a transaction status onto the AXI response vocabulary.
func axiRespFor(st core.Status) axi.Resp {
	switch st {
	case core.StOK:
		return axi.RespOKAY
	case core.StExOK:
		return axi.RespEXOKAY
	case core.StExFail:
		return axi.RespOKAY // failed exclusive: OKAY, not EXOKAY
	case core.StErrDecode:
		return axi.RespDECERR
	default:
		return axi.RespSLVERR
	}
}

// AXIMaster is the master-side NIU for an AXI socket: the IP's AXI master
// engine connects to the other end of the port.
type AXIMaster struct {
	*MasterEngine
}

// axiMasterAdapter converts between the five AXI channels and its far
// side: AR and AW/W are two independent request sources, R streams
// beats, B carries write responses.
type axiMasterAdapter struct {
	far  FarSide
	port *axi.Port

	wQ      []axi.WBeat // buffered write data awaiting its AW
	rStream []axiRead   // completed reads streaming R beats
	rBeat   int
	rBufs   readBufs // rStream's data
	bQ      []axi.BBeat

	// Conversion scratch, reused by every issue: Issue encodes the
	// request before it returns.
	req        core.Request
	wData, wBE []byte
}

type axiRead struct {
	id    int
	data  []byte
	size  int
	beats int
	resp  axi.Resp
}

// NewAXIMaster creates the NIU and registers it on clk. AXI's natural
// ordering model is ID-ordered.
func NewAXIMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *axi.Port, cfg MasterConfig) *AXIMaster {
	e := NewMasterEngine(net, amap, cfg, core.IDOrdered)
	e.Bind(clk, NewAXIMasterAdapter(e, port), port.AR, port.AW, port.W)
	return &AXIMaster{e}
}

// NewAXIMasterAdapter returns the master adapter of an AXI socket,
// issuing into far.
func NewAXIMasterAdapter(far FarSide, port *axi.Port) MasterAdapter {
	return &axiMasterAdapter{far: far, port: port, rBufs: newReadBufs(port.R.Cap())}
}

// Idle implements sim.Idler: no request on the socket and no R or B
// beat left to stream. Write data buffered without its AW waits for the
// AW pipe.
func (a *axiMasterAdapter) Idle() bool {
	return a.port.AR.Empty() && a.port.AW.Empty() && a.port.W.Empty() &&
		len(a.rStream) == 0 && len(a.bQ) == 0
}

// DeliverResponse implements MasterAdapter.
func (a *axiMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	id := axiID(entry.ProtoID)
	if entry.Cmd.IsWrite() {
		a.bQ = append(a.bQ, axi.BBeat{ID: id, Resp: axiRespFor(rsp.Status)})
		return
	}
	beats, size := int(entry.Len), int(entry.Size)
	a.rStream = append(a.rStream, axiRead{
		id: id, data: a.rBufs.hold(rsp.Data, beats*size),
		size: size, beats: beats,
		resp: axiRespFor(rsp.Status),
	})
}

// StreamSocket implements MasterAdapter: one R beat and one B beat per
// cycle.
func (a *axiMasterAdapter) StreamSocket() {
	a.streamR()
	a.bQ = sim.PushOne(a.bQ, a.port.B)
}

// PumpRequests implements MasterAdapter: AR and AW/W issue
// independently, one attempt each per cycle.
func (a *axiMasterAdapter) PumpRequests(cycle int64) {
	a.acceptAR(cycle)
	a.acceptWrites(cycle)
}

func (a *axiMasterAdapter) streamR() {
	if len(a.rStream) == 0 || !a.port.R.CanPush(1) {
		return
	}
	r := &a.rStream[0]
	lo := a.rBeat * r.size
	last := a.rBeat == r.beats-1
	a.port.R.Push(axi.RBeat{ID: r.id, Data: r.data[lo : lo+r.size], Resp: r.resp, Last: last})
	if last {
		a.rBufs.pushed(r.data)
		a.rStream = sim.DropFront(a.rStream, 1)
		a.rBeat = 0
	} else {
		a.rBeat++
	}
}

// priorityFor maps the AXI QoS signal onto the NoC priority, defaulting
// to the NIU's configured priority.
func (a *axiMasterAdapter) priorityFor(qos uint8) noctypes.Priority {
	if qos == 0 {
		return a.far.Config().Priority
	}
	if qos > 3 {
		qos = 3
	}
	return noctypes.Priority(qos)
}

func (a *axiMasterAdapter) acceptAR(cycle int64) {
	ar, ok := a.port.AR.Peek()
	if !ok {
		return
	}
	cmd := core.CmdRead
	excl := false
	if ar.Lock && a.far.Config().Services.Exclusive {
		cmd = core.CmdReadEx
		excl = true
	} // exclusive demoted to plain read when the service is off (AXI: OKAY)
	a.req = core.Request{
		Cmd: cmd, Addr: ar.Addr, Size: ar.Size, Len: beatLen("AXI", ar.Beats()),
		Burst: axiBurstToCore(ar.Burst), Exclusive: excl,
		Priority: a.priorityFor(ar.QoS),
	}
	switch a.far.Issue(&a.req, axiProtoID(ar.ID, false), nil, cycle) {
	case IssueOK:
		a.port.AR.Pop()
	case IssueDecodeErr:
		a.port.AR.Pop()
		a.rStream = append(a.rStream, axiRead{
			id: ar.ID, data: a.rBufs.hold(nil, ar.Beats()*int(ar.Size)),
			size: int(ar.Size), beats: ar.Beats(), resp: axi.RespDECERR,
		})
	case IssueStall, IssueUnsupported:
		// retry next cycle (unsupported cannot happen for reads)
	}
}

func (a *axiMasterAdapter) acceptWrites(cycle int64) {
	// Buffer write data as it arrives.
	if w, ok := a.port.W.Pop(); ok {
		a.wQ = append(a.wQ, w)
	}
	aw, ok := a.port.AW.Peek()
	if !ok {
		return
	}
	// The head AW needs all its beats buffered before the burst converts
	// to one transaction-layer request.
	need := aw.Beats()
	have := -1
	for i, w := range a.wQ {
		if w.Last {
			have = i + 1
			break
		}
	}
	if have < 0 {
		return // last beat not yet arrived
	}
	if have != need {
		panic(fmt.Sprintf("niu: %v: WLAST after %d beats, AWLEN wants %d", a.far.Config().Node, have, need))
	}
	data, be := a.wData[:0], a.wBE[:0]
	hasStrb := false
	for i := 0; i < need; i++ {
		w := a.wQ[i]
		data = append(data, w.Data...)
		be = mem.AppendEnables(be, w.Strb, len(w.Data))
		hasStrb = hasStrb || w.Strb != nil
	}
	cmd := core.CmdWrite
	excl := false
	if aw.Lock && a.far.Config().Services.Exclusive {
		cmd = core.CmdWriteEx
		excl = true
	}
	a.wData, a.wBE = data, be
	a.req = core.Request{
		Cmd: cmd, Addr: aw.Addr, Size: aw.Size, Len: beatLen("AXI", need),
		Burst: axiBurstToCore(aw.Burst), Data: data, Exclusive: excl,
		Priority: a.priorityFor(aw.QoS),
	}
	if hasStrb {
		a.req.BE = be
	}
	switch a.far.Issue(&a.req, axiProtoID(aw.ID, true), nil, cycle) {
	case IssueOK:
		a.port.AW.Pop()
		a.wQ = sim.DropFront(a.wQ, need)
	case IssueDecodeErr:
		a.port.AW.Pop()
		a.wQ = sim.DropFront(a.wQ, need)
		a.bQ = append(a.bQ, axi.BBeat{ID: aw.ID, Resp: axi.RespDECERR})
	case IssueStall, IssueUnsupported:
	}
}

// AXISlave is the slave-side NIU for an AXI target IP: it executes
// transaction-layer requests by driving the target's socket with an
// embedded AXI master engine.
type AXISlave struct {
	*SlaveEngine
}

type axiSlaveAdapter struct {
	eng *axi.Master
	execs[func(axi.Resp), func(axi.ReadResult)]
}

// NewAXISlave creates the NIU (and its embedded engine) on clk.
func NewAXISlave(clk *sim.Clock, net *transport.Network, port *axi.Port, cfg SlaveConfig) *AXISlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, NewAXISlaveAdapter(clk, port))
	return &AXISlave{e}
}

// NewAXISlaveAdapter returns the slave adapter of an AXI target: it
// executes requests through an AXI master engine of its own on clk.
func NewAXISlaveAdapter(clk *sim.Clock, port *axi.Port) SlaveAdapter {
	a := &axiSlaveAdapter{eng: axi.NewMaster(clk, port, nil)}
	a.bind = func(part func([]byte, bool)) (func(axi.Resp), func(axi.ReadResult)) {
		return func(r axi.Resp) { part(nil, axiErr(r)) },
			func(r axi.ReadResult) { part(r.Data, axiErr(r.Resp)) }
	}
	return a
}

func axiErr(r axi.Resp) bool { return r == axi.RespSLVERR || r == axi.RespDECERR }

// Execute implements SlaveAdapter. A request longer than an AXI burst
// runs as bursts of axi.MaxBeats beats, the last one shorter, each at
// the address the whole burst reaches it; a WRAP burst that long runs
// one beat per burst instead, since its parts would wrap at windows of
// their own. Every part carries the request's ID, so they complete in
// order.
func (a *axiSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	engID := int(req.Src)<<8 | int(req.Tag)
	data, be := heldWrite(req)
	burst, beats := coreBurstToAXI(req.Burst), int(req.Len)
	per := min(beats, axi.MaxBeats) // beats per part
	if per < beats && burst == axi.BurstWrap {
		burst, per = axi.BurstIncr, 1
	}
	parts, size := (beats+per-1)/per, int(req.Size)
	wrote, read := a.exec(req, respond, parts).completions()
	for i := 0; i < parts; i++ {
		addr, n := partAddr(req, i, per), min(per, beats-i*per)
		if req.Cmd.IsRead() {
			a.eng.Read(engID, addr, req.Size, n, burst, read)
			continue
		}
		lo, hi := i*per*size, (i*per+n)*size
		var strb []byte // nil enables every byte
		if be != nil {
			strb = be[lo:hi]
		}
		a.eng.WriteStrobed(engID, addr, req.Size, burst, data[lo:hi], strb, wrote)
	}
}
