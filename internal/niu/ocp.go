package niu

import (
	"bytes"
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

func ocpSeqToCore(s ocp.BurstSeq) core.BurstKind {
	switch s {
	case ocp.SeqWrap:
		return core.BurstWrap
	case ocp.SeqStrm:
		return core.BurstFixed
	default:
		return core.BurstIncr
	}
}

func coreBurstToOCP(b core.BurstKind) ocp.BurstSeq {
	switch b {
	case core.BurstWrap:
		return ocp.SeqWrap
	case core.BurstFixed:
		return ocp.SeqStrm
	default:
		return ocp.SeqIncr
	}
}

// ocpRespFor maps a transaction status onto OCP SResp.
func ocpRespFor(st core.Status) ocp.SResp {
	switch st {
	case core.StOK, core.StExOK:
		return ocp.RespDVA
	case core.StExFail:
		return ocp.RespFAIL
	default:
		return ocp.RespERR
	}
}

// OCPMaster is the master-side NIU for an OCP socket: thread-ordered,
// with posted writes and lazy synchronization.
type OCPMaster struct {
	*MasterEngine
}

// ocpMasterAdapter assembles per-thread request bursts and streams
// multi-beat responses back onto the socket.
type ocpMasterAdapter struct {
	far  FarSide
	port *ocp.Port

	asm     map[int]*ocpAsm // per-thread request-burst assembly
	rspQ    []ocpRspStream
	rspBeat int
	rspBufs readBufs // rspQ's read data

	// Conversion scratch, reused by every issue: Issue encodes the
	// request before it returns.
	req        core.Request
	wData, wBE []byte
}

// ocpAsm assembles one thread's request burst; it is kept and reused
// for the thread's next burst once this one issues.
type ocpAsm struct {
	first  ocp.ReqBeat
	data   []byte
	be     []byte
	beats  int
	active bool // a burst is being assembled
}

type ocpRspStream struct {
	thread int
	cmd    core.Cmd
	data   []byte
	size   int
	beats  int
	resp   ocp.SResp
}

// NewOCPMaster creates the NIU and registers it on clk. OCP's natural
// ordering model is thread-ordered.
func NewOCPMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *ocp.Port, cfg MasterConfig) *OCPMaster {
	e := NewMasterEngine(net, amap, cfg, core.ThreadOrdered)
	e.Bind(clk, NewOCPMasterAdapter(e, port), port.Req)
	return &OCPMaster{e}
}

// NewOCPMasterAdapter returns the master adapter of an OCP socket,
// issuing into far.
func NewOCPMasterAdapter(far FarSide, port *ocp.Port) MasterAdapter {
	return &ocpMasterAdapter{far: far, port: port, asm: make(map[int]*ocpAsm), rspBufs: newReadBufs(port.Resp.Cap())}
}

// Idle implements sim.Idler: no request beat on the socket and no
// response beat left to stream. A burst being assembled waits for its
// next beat on the socket.
func (a *ocpMasterAdapter) Idle() bool { return a.port.Req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter. The entry's ProtoID is the
// request's thread.
func (a *ocpMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	st := ocpRespFor(rsp.Status)
	if entry.Cmd.IsRead() {
		beats, size := int(entry.Len), int(entry.Size)
		a.rspQ = append(a.rspQ, ocpRspStream{
			thread: entry.ProtoID, cmd: entry.Cmd,
			data: a.rspBufs.hold(rsp.Data, beats*size),
			size: size, beats: beats, resp: st,
		})
		return
	}
	// Writes answer with a single response beat.
	a.rspQ = append(a.rspQ, ocpRspStream{thread: entry.ProtoID, cmd: entry.Cmd, beats: 1, resp: st})
}

// StreamSocket implements MasterAdapter: one response beat per cycle.
func (a *ocpMasterAdapter) StreamSocket() {
	if len(a.rspQ) == 0 || !a.port.Resp.CanPush(1) {
		return
	}
	r := &a.rspQ[0]
	last := a.rspBeat == r.beats-1
	beat := ocp.RespBeat{Resp: r.resp, ThreadID: r.thread, Last: last}
	if r.data != nil {
		lo := a.rspBeat * r.size
		beat.Data = r.data[lo : lo+r.size]
	}
	a.port.Resp.Push(beat)
	if last {
		a.rspBufs.pushed(r.data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
		a.rspBeat = 0
	} else {
		a.rspBeat++
	}
}

// localFail answers a request on the socket without touching the fabric
// (used for WRC with the exclusive service disabled).
func (a *ocpMasterAdapter) localFail(thread int, resp ocp.SResp) {
	a.rspQ = append(a.rspQ, ocpRspStream{thread: thread, beats: 1, resp: resp})
}

// PumpRequests implements MasterAdapter: OCP requests arrive one beat
// per cycle; the conversion happens on the last beat.
func (a *ocpMasterAdapter) PumpRequests(cycle int64) {
	b, ok := a.port.Req.Peek()
	if !ok {
		return
	}
	asm := a.asm[b.ThreadID]
	if asm == nil {
		asm = &ocpAsm{}
		a.asm[b.ThreadID] = asm
	}
	if !asm.active {
		asm.first, asm.active = b, true
		asm.data, asm.be, asm.beats = asm.data[:0], asm.be[:0], 0
	}
	// Assemble the burst one beat per cycle; the conversion happens on
	// the last beat.
	if b.Cmd.IsWrite() {
		// Only consume the beat if, on the last beat, issue could
		// proceed — otherwise the socket stalls (peek without pop).
		if !b.Last {
			a.port.Req.Pop()
			asm.data = append(asm.data, b.Data...)
			asm.be = mem.AppendEnables(asm.be, b.ByteEn, len(b.Data))
			asm.beats++
			return
		}
	}
	if !b.Last {
		// Multi-beat read request phase: just count the beats.
		a.port.Req.Pop()
		asm.beats++
		return
	}
	// Last beat: build the request.
	first := asm.first
	data := append(a.wData[:0], asm.data...)
	be := asm.be
	if b.Cmd.IsWrite() {
		data = append(data, b.Data...)
		be = mem.AppendEnables(append(a.wBE[:0], asm.be...), b.ByteEn, len(b.Data))
		a.wBE = be
	}
	a.wData = data
	beats := asm.beats + 1

	var cmd core.Cmd
	excl := false
	switch first.Cmd {
	case ocp.CmdWR:
		cmd = core.CmdWritePost
	case ocp.CmdWRNP:
		cmd = core.CmdWrite
	case ocp.CmdRD:
		cmd = core.CmdRead
	case ocp.CmdRDL:
		if a.far.Config().Services.Exclusive {
			cmd, excl = core.CmdReadEx, true
		} else {
			cmd = core.CmdRead // demoted: plain read, reservation never set
		}
	case ocp.CmdWRC:
		if !a.far.Config().Services.Exclusive {
			// Without the service a conditional can never succeed; fail
			// locally rather than silently losing atomicity.
			a.port.Req.Pop()
			asm.active = false
			a.localFail(b.ThreadID, ocp.RespFAIL)
			return
		}
		cmd, excl = core.CmdWriteEx, true
	default:
		panic(fmt.Sprintf("niu: OCP NIU cannot convert %v", first.Cmd))
	}

	a.req = core.Request{
		Cmd: cmd, Addr: first.Addr, Size: first.Size, Len: beatLen("OCP", beats),
		Burst: ocpSeqToCore(first.Seq), Exclusive: excl,
		Posted: cmd == core.CmdWritePost,
	}
	if cmd.IsWrite() {
		a.req.Data = data
		if bytes.IndexByte(be, 0) >= 0 {
			a.req.BE = be
		}
	}
	switch a.far.Issue(&a.req, first.ThreadID, nil, cycle) {
	case IssueOK:
		a.port.Req.Pop()
		asm.active = false
	case IssueDecodeErr:
		a.port.Req.Pop()
		asm.active = false
		if cmd.ExpectsResponse() {
			if cmd.IsRead() {
				a.rspQ = append(a.rspQ, ocpRspStream{
					thread: first.ThreadID, cmd: cmd,
					data: a.rspBufs.hold(nil, beats*int(first.Size)), size: int(first.Size),
					beats: beats, resp: ocp.RespERR,
				})
			} else {
				a.localFail(first.ThreadID, ocp.RespERR)
			}
		}
	case IssueStall, IssueUnsupported:
		// Leave the last beat in the socket; retry next cycle.
	}
}

// OCPSlave is the slave-side NIU for an OCP target IP.
type OCPSlave struct {
	*SlaveEngine
}

type ocpSlaveAdapter struct {
	eng *ocp.Master
	execs[func(ocp.SResp), func(ocp.ReadResult)]
	// thread allocation: the engine's threads are a hardware resource of
	// the NIU; requests hash onto them by tag.
	threads int
}

// NewOCPSlave creates the NIU; threads is the target socket's thread
// count.
func NewOCPSlave(clk *sim.Clock, net *transport.Network, port *ocp.Port, threads int, cfg SlaveConfig) *OCPSlave {
	e := NewSlaveEngine(net, cfg)
	e.Bind(clk, NewOCPSlaveAdapter(clk, port, threads))
	return &OCPSlave{e}
}

// NewOCPSlaveAdapter returns the slave adapter of an OCP target with
// threads threads: it executes requests through an OCP master engine of
// its own on clk.
func NewOCPSlaveAdapter(clk *sim.Clock, port *ocp.Port, threads int) SlaveAdapter {
	a := &ocpSlaveAdapter{eng: ocp.NewMaster(clk, port), threads: max(threads, 1)}
	a.bind = func(part func([]byte, bool)) (func(ocp.SResp), func(ocp.ReadResult)) {
		return func(r ocp.SResp) { part(nil, r == ocp.RespERR) },
			func(r ocp.ReadResult) { part(r.Data, r.Resp == ocp.RespERR) }
	}
	return a
}

// Execute implements SlaveAdapter.
func (a *ocpSlaveAdapter) Execute(req *core.Request, respond func(*core.Response)) {
	th := int(req.Tag) % a.threads
	data, be := heldWrite(req)
	seq := coreBurstToOCP(req.Burst)
	wrote, read := a.exec(req, respond, 1).completions()
	switch {
	case req.Cmd.IsRead():
		a.eng.Read(th, req.Addr, req.Size, int(req.Len), seq, read)
	case req.Cmd == core.CmdWritePost:
		a.eng.Write(th, req.Addr, req.Size, seq, data, be, nil)
	default:
		a.eng.WriteNonPosted(th, req.Addr, req.Size, seq, data, be, wrote)
	}
}
