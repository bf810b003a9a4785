package bus

import (
	"bytes"
	"fmt"

	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
)

// Bridges: a foreign socket on one side, the bus's AHB reference socket
// on the other. Every bridge embodies the paper's Fig-2 criticism:
//
//   - one transaction in flight (the reference socket is single-
//     outstanding): AXI/AVCI out-of-order and OCP threads serialize;
//   - posted writes become blocking;
//   - exclusive access and lazy synchronization are not expressible:
//     AXI exclusives demote (OKAY, never EXOKAY), OCP WriteConditional
//     fails unconditionally;
//   - byte enables are not expressible: a write that disables some of
//     its bytes is refused with an error, and one that disables all of
//     them writes nothing and answers OK (see screen);
//   - QoS hints are dropped on the floor;
//   - every crossing costs conversion latency in each direction.
//
// What they share is a crossing; a bridge itself only decodes its socket
// into one AHB request and encodes the AHB response back onto it. Master
// bridges put a foreign IP master on the bus through an AHB master
// engine; a SlaveBridge puts a foreign target behind it.

// latency is the conversion cost of a crossing in cycles, charged on the
// way to the far side and again on the way back.
const latency = 2

// crossing is what every bridge shares: the one transaction in flight,
// held in the bus's terms as an AHB request and response; the call that
// issues it on the far side's master; the conversion latency; and the
// count of transactions that lost a feature crossing the bridge.
type crossing struct {
	clk  *sim.Clock
	call func(ahb.Req) // issues req on the far side's master, whose completion calls done

	req   ahb.Req
	rsp   ahb.Rsp
	phase crossPhase
	at    int64 // cycle the pending step is due

	demoted uint64
}

// crossPhase is where a crossing's transaction is.
type crossPhase uint8

const (
	crossIdle crossPhase = iota
	crossIn              // waiting out the latency to the far side
	crossFar             // the far side's master holds it
	crossBack            // waiting out the latency back
)

// Demoted counts the transactions that lost a feature crossing the
// bridge (an exclusive, a reservation, a posted write, a thread or an ID
// order, a stream's concurrency, a write's byte enables).
func (x *crossing) Demoted() uint64 { return x.demoted }

func (x *crossing) busy() bool { return x.phase != crossIdle }

// start puts req in flight; the far side sees it latency cycles later.
func (x *crossing) start(cycle int64, req ahb.Req) {
	x.req, x.phase, x.at = req, crossIn, cycle+latency
}

// done is the far side's completion: the response crosses back latency
// cycles after the cycle the far side completes in. A completion's read
// data is valid only during the call, so the crossing keeps a copy.
func (x *crossing) done(rsp ahb.Rsp) {
	rsp.Data = bytes.Clone(rsp.Data)
	x.rsp, x.phase, x.at = rsp, crossBack, x.clk.Cycle()+latency
}

// advance runs the step due at cycle. It returns the response, and frees
// the crossing, once the transaction has crossed back.
func (x *crossing) advance(cycle int64) (ahb.Rsp, bool) {
	if x.at > cycle {
		return ahb.Rsp{}, false
	}
	switch x.phase {
	case crossIn:
		x.phase = crossFar
		x.call(x.req)
	case crossBack:
		x.phase = crossIdle
		return x.rsp, true
	}
	return ahb.Rsp{}, false
}

// toBus makes an AHB master engine on bus b the crossing's far side: the
// bus side of a master bridge. The engine registers before the bridge,
// so it completes a transaction earlier in the same cycle.
func (x *crossing) toBus(clk *sim.Clock, b *Bus, name string) {
	port := ahb.NewPort(clk, name, 2)
	b.AddMaster(port)
	eng := ahb.NewMaster(clk, port, 1)
	wrote := func(r ahb.Resp) { x.done(ahb.Rsp{Resp: r}) }
	// A read that comes back short (an error) is zero-padded to the
	// length asked for; PVCI asks with 0 beats and takes its word as is.
	read := func(r ahb.ReadResult) {
		x.done(ahb.Rsp{Resp: r.Resp, Data: padTo(r.Data, x.req.Beats*int(x.req.Size))})
	}
	x.clk = clk
	x.call = func(req ahb.Req) {
		if req.Write {
			eng.Write(req.Addr, req.Size, req.Burst, req.Data, wrote)
		} else {
			eng.Read(req.Addr, req.Size, req.Burst, req.Beats, read)
		}
	}
}

// screen decides whether a write may cross, given how many of its
// total bytes its byte enables disable. The bus's AHB socket has no
// byte enables, so only a write with every byte enabled crosses. One
// with none enabled writes nothing and answers OK, as the NoC does; one
// with some disabled cannot be written exactly, so it answers an error
// and counts as demoted. Neither touches the bus; rsp is the answer to
// give when the write does not cross.
func (x *crossing) screen(disabled, total int) (crosses bool, rsp ahb.Resp) {
	switch disabled {
	case 0:
		return true, ahb.RespOkay
	case total:
		return false, ahb.RespOkay
	}
	x.demoted++
	return false, ahb.RespError
}

// disabledBytes counts the bytes a write's byte enables disable (nil
// enables every byte).
func disabledBytes(be []byte) int { return bytes.Count(be, []byte{0}) }

// padTo returns data zero-padded to at least n bytes, in a new slice
// when it pads.
func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data
	}
	return append(data[:len(data):len(data)], make([]byte, n-len(data))...)
}

// AXIBridge adapts an AXI IP master onto the bus: it collects a write
// burst's W beats before crossing and streams a read back beat by beat.
// Like the OCP and VCI bridges it maps bursts through ahb.BurstFor, so
// FIXED (and OCP STRM) degrades to INCR — a real bridge feature loss
// (readers of a FIFO register through a bridge get incrementing
// addresses).
type AXIBridge struct {
	crossing
	port *axi.Port
	id   int // AXI ID of the transaction in flight

	wQ    []axi.WBeat
	rQ    []bridgedRead
	rBeat int
	bQ    []axi.BBeat
}

type bridgedRead struct {
	id    int
	data  []byte
	size  int
	beats int
	resp  axi.Resp
}

// NewAXIBridge creates the bridge, registering its bus master port.
func NewAXIBridge(clk *sim.Clock, b *Bus, port *axi.Port) *AXIBridge {
	br := &AXIBridge{port: port}
	br.toBus(clk, b, "brg.axi")
	clk.Register(br)
	return br
}

// Eval implements sim.Clocked.
func (br *AXIBridge) Eval(cycle int64) {
	if rsp, ok := br.advance(cycle); ok {
		if br.req.Write {
			br.bQ = append(br.bQ, axi.BBeat{ID: br.id, Resp: ahbToAXI(rsp.Resp)})
		} else {
			br.rQ = append(br.rQ, bridgedRead{id: br.id, data: rsp.Data,
				size: int(br.req.Size), beats: br.req.Beats, resp: ahbToAXI(rsp.Resp)})
		}
	}
	// Stream buffered responses to the IP.
	if len(br.rQ) > 0 && br.port.R.CanPush(1) {
		r := &br.rQ[0]
		lo := br.rBeat * r.size
		last := br.rBeat == r.beats-1
		br.port.R.Push(axi.RBeat{ID: r.id, Data: r.data[lo : lo+r.size], Resp: r.resp, Last: last})
		if last {
			br.rQ = br.rQ[1:]
			br.rBeat = 0
		} else {
			br.rBeat++
		}
	}
	if len(br.bQ) > 0 && br.port.B.CanPush(1) {
		br.port.B.Push(br.bQ[0])
		br.bQ = br.bQ[1:]
	}
	if w, ok := br.port.W.Pop(); ok {
		br.wQ = append(br.wQ, w)
	}
	if br.busy() {
		return // serialization: ONE outstanding, unlike the NoC NIU
	}
	// Prefer a complete write burst, else a read.
	if aw, ok := br.port.AW.Peek(); ok {
		need := aw.Beats()
		have := -1
		for i, w := range br.wQ {
			if w.Last {
				have = i + 1
				break
			}
		}
		if have == need {
			br.port.AW.Pop()
			data := make([]byte, 0, need*int(aw.Size))
			disabled := 0
			for i := 0; i < need; i++ {
				data = append(data, br.wQ[i].Data...)
				disabled += disabledBytes(br.wQ[i].Strb)
			}
			br.wQ = br.wQ[need:]
			if ok, resp := br.screen(disabled, len(data)); !ok {
				br.bQ = append(br.bQ, axi.BBeat{ID: aw.ID, Resp: ahbToAXI(resp)})
				return
			}
			if aw.Lock {
				br.demoted++ // exclusive write demoted to plain write
			}
			br.id = aw.ID
			br.start(cycle, ahb.Req{Write: true, Addr: aw.Addr, Size: aw.Size,
				Burst: ahb.BurstFor(aw.Burst == axi.BurstWrap, need), Data: data})
			return
		}
	}
	if ar, ok := br.port.AR.Pop(); ok {
		if ar.Lock {
			br.demoted++ // exclusive read demoted
		}
		beats := ar.Beats()
		br.id = ar.ID
		br.start(cycle, ahb.Req{Addr: ar.Addr, Size: ar.Size,
			Burst: ahb.BurstFor(ar.Burst == axi.BurstWrap, beats), Beats: beats})
	}
}

func ahbToAXI(r ahb.Resp) axi.Resp {
	if r == ahb.RespOkay {
		return axi.RespOKAY
	}
	return axi.RespSLVERR // the bridge cannot distinguish DECERR
}

// OCPBridge adapts an OCP IP master onto the bus: it assembles a burst
// from its request beats before crossing; threads collapse into one
// stream, posted writes block, a linked read loses its reservation and
// lazy synchronization is refused without crossing.
type OCPBridge struct {
	crossing
	port   *ocp.Port
	thread int  // thread of the transaction in flight
	posted bool // the transaction in flight is a posted write: no response

	asm   map[int]*ocpBridgeAsm
	rspQ  []bridgedOCPRsp
	rBeat int
}

type ocpBridgeAsm struct {
	first    ocp.ReqBeat
	data     []byte
	beats    int
	disabled int // write bytes disabled by their byte enables
}

type bridgedOCPRsp struct {
	thread int
	data   []byte
	size   int
	beats  int
	resp   ocp.SResp
}

// NewOCPBridge creates the bridge.
func NewOCPBridge(clk *sim.Clock, b *Bus, port *ocp.Port) *OCPBridge {
	br := &OCPBridge{port: port, asm: make(map[int]*ocpBridgeAsm)}
	br.toBus(clk, b, "brg.ocp")
	clk.Register(br)
	return br
}

// Eval implements sim.Clocked.
func (br *OCPBridge) Eval(cycle int64) {
	if rsp, ok := br.advance(cycle); ok && !br.posted {
		r := bridgedOCPRsp{thread: br.thread, beats: 1, resp: ocpRespFromAHB(rsp.Resp)}
		if !br.req.Write {
			r.data, r.size, r.beats = rsp.Data, int(br.req.Size), br.req.Beats
		}
		br.rspQ = append(br.rspQ, r)
	}
	if len(br.rspQ) > 0 && br.port.Resp.CanPush(1) {
		r := &br.rspQ[0]
		last := br.rBeat == r.beats-1
		beat := ocp.RespBeat{Resp: r.resp, ThreadID: r.thread, Last: last}
		if r.data != nil {
			lo := br.rBeat * r.size
			beat.Data = r.data[lo : lo+r.size]
		}
		br.port.Resp.Push(beat)
		if last {
			br.rspQ = br.rspQ[1:]
			br.rBeat = 0
		} else {
			br.rBeat++
		}
	}
	if br.busy() {
		return
	}
	beat, ok := br.port.Req.Peek()
	if !ok {
		return
	}
	a := br.asm[beat.ThreadID]
	if a == nil {
		a = &ocpBridgeAsm{first: beat}
		br.asm[beat.ThreadID] = a
	}
	if beat.Cmd.IsWrite() {
		a.disabled += disabledBytes(beat.ByteEn)
	}
	if !beat.Last {
		br.port.Req.Pop()
		if beat.Cmd.IsWrite() {
			a.data = append(a.data, beat.Data...)
		}
		a.beats++
		return
	}
	// Last beat: convert.
	br.port.Req.Pop()
	delete(br.asm, beat.ThreadID)
	first := a.first
	beats := a.beats + 1
	data := a.data
	if beat.Cmd.IsWrite() {
		data = append(append([]byte(nil), a.data...), beat.Data...)
	}

	if first.Cmd == ocp.CmdWRC {
		// Lazy synchronization cannot cross the bridge: fail closed.
		br.demoted++
		br.rspQ = append(br.rspQ, bridgedOCPRsp{thread: first.ThreadID, beats: 1, resp: ocp.RespFAIL})
		return
	}
	if first.Cmd.IsWrite() {
		if ok, resp := br.screen(a.disabled, len(data)); !ok {
			if first.Cmd != ocp.CmdWR { // a posted write takes no response
				br.rspQ = append(br.rspQ, bridgedOCPRsp{thread: first.ThreadID, beats: 1, resp: ocpRespFromAHB(resp)})
			}
			return
		}
	}
	switch first.Cmd {
	case ocp.CmdRDL:
		br.demoted++ // reservation silently dropped: plain read
	case ocp.CmdWR:
		br.demoted++ // posted write becomes blocking
	}
	br.thread, br.posted = first.ThreadID, first.Cmd == ocp.CmdWR
	br.start(cycle, ahb.Req{Write: first.Cmd.IsWrite(), Addr: first.Addr, Size: first.Size,
		Burst: ahb.BurstFor(first.Seq == ocp.SeqWrap, beats), Beats: beats, Data: data})
}

func ocpRespFromAHB(r ahb.Resp) ocp.SResp {
	if r == ahb.RespOkay {
		return ocp.RespDVA
	}
	return ocp.RespERR
}

// VCIBridge adapts a VCI master onto the bus. One type serves the three
// VCI flavours, which differ only in their request and response types:
// PVCI and BVCI orderings match the bus, so they lose only latency; AVCI
// loses its ID-based reordering (strict FIFO).
type VCIBridge[Req, Rsp any] struct {
	crossing
	ipReq   *sim.Pipe[Req]
	ipRsp   *sim.Pipe[Rsp]
	decode  func(Req) (ahb.Req, []byte) // the AHB request and the write's byte enables
	encode  func(Req, ahb.Rsp) Rsp
	demotes bool // every transaction loses a feature (AVCI's ID order)

	cur  Req // the request in flight
	rspQ []Rsp
}

func newVCIBridge[Req, Rsp any](clk *sim.Clock, b *Bus, name string, ipReq *sim.Pipe[Req], ipRsp *sim.Pipe[Rsp],
	decode func(Req) (ahb.Req, []byte), encode func(Req, ahb.Rsp) Rsp) *VCIBridge[Req, Rsp] {
	br := &VCIBridge[Req, Rsp]{ipReq: ipReq, ipRsp: ipRsp, decode: decode, encode: encode}
	br.toBus(clk, b, name)
	clk.Register(br)
	return br
}

// NewPVCIBridge creates the bridge for a PVCI master: a single word
// crosses as one SINGLE transfer of its byte count.
func NewPVCIBridge(clk *sim.Clock, b *Bus, port *vci.PPort) *VCIBridge[vci.PReq, vci.PRsp] {
	return newVCIBridge(clk, b, "brg.pvci", port.Req, port.Rsp, pvciToAHB,
		func(_ vci.PReq, r ahb.Rsp) vci.PRsp { return vci.PRsp{Data: r.Data, Err: r.Resp != ahb.RespOkay} })
}

// NewBVCIBridge creates the bridge for a BVCI master.
func NewBVCIBridge(clk *sim.Clock, b *Bus, port *vci.BPort) *VCIBridge[vci.BReq, vci.BRsp] {
	return newVCIBridge(clk, b, "brg.bvci", port.Req, port.Rsp, bvciToAHB,
		func(_ vci.BReq, r ahb.Rsp) vci.BRsp { return bvciFromAHB(r) })
}

// NewAVCIBridge creates the bridge for an AVCI master, serializing IDs.
func NewAVCIBridge(clk *sim.Clock, b *Bus, port *vci.APort) *VCIBridge[vci.AReq, vci.ARsp] {
	br := newVCIBridge(clk, b, "brg.avci", port.Req, port.Rsp,
		func(r vci.AReq) (ahb.Req, []byte) { return bvciToAHB(r.BReq) },
		func(r vci.AReq, rsp ahb.Rsp) vci.ARsp { return vci.ARsp{BRsp: bvciFromAHB(rsp), ID: r.ID} })
	br.demotes = true
	return br
}

func pvciToAHB(r vci.PReq) (ahb.Req, []byte) {
	if r.Write {
		return ahb.Req{Write: true, Addr: r.Addr, Size: uint8(len(r.Data)), Burst: ahb.BurstSingle, Data: r.Data}, r.BE
	}
	n := r.N
	if n < 1 || n > 4 {
		n = 4
	}
	return ahb.Req{Addr: r.Addr, Size: uint8(n), Burst: ahb.BurstSingle}, nil
}

func bvciToAHB(r vci.BReq) (ahb.Req, []byte) {
	return ahb.Req{Write: r.Op == vci.OpWrite, Addr: r.Addr, Size: r.Size,
		Burst: ahb.BurstFor(r.Wrap, r.Beats), Beats: r.Beats, Data: r.Data}, r.BE
}

func bvciFromAHB(r ahb.Rsp) vci.BRsp { return vci.BRsp{Data: r.Data, Err: r.Resp != ahb.RespOkay} }

// Eval implements sim.Clocked.
func (br *VCIBridge[Req, Rsp]) Eval(cycle int64) {
	if rsp, ok := br.advance(cycle); ok {
		br.rspQ = append(br.rspQ, br.encode(br.cur, rsp))
	}
	if len(br.rspQ) > 0 && br.ipRsp.CanPush(1) {
		br.ipRsp.Push(br.rspQ[0])
		br.rspQ = br.rspQ[1:]
	}
	if br.busy() {
		return
	}
	if req, ok := br.ipReq.Pop(); ok {
		areq, be := br.decode(req)
		if areq.Write {
			if ok, resp := br.screen(disabledBytes(be), len(areq.Data)); !ok {
				br.rspQ = append(br.rspQ, br.encode(req, ahb.Rsp{Resp: resp}))
				return
			}
		}
		if br.demotes {
			br.demoted++
		}
		br.cur = req
		br.start(cycle, areq)
	}
}

// PropBridge adapts the proprietary streaming socket onto the bus: one
// stream each way at a time, one chunk of at most 64 bytes crossing at a
// time, acks synthesized by the bridge. A chunk crosses as a size-1 INCR
// of its byte count.
type PropBridge struct {
	crossing
	port *prop.Port

	wr   *propBridgeWr
	rd   *propBridgeRd
	ackQ []prop.Ack
}

type propBridgeWr struct {
	d       prop.Descriptor
	buf     []byte
	sent    int
	acked   int
	ackPend int
	gotLast bool
}

type propBridgeRd struct {
	d       prop.Descriptor
	issued  int
	got     []byte
	emitted int
}

// NewPropBridge creates the bridge.
func NewPropBridge(clk *sim.Clock, b *Bus, port *prop.Port) *PropBridge {
	br := &PropBridge{port: port}
	br.toBus(clk, b, "brg.prop")
	clk.Register(br)
	return br
}

// Eval implements sim.Clocked.
func (br *PropBridge) Eval(cycle int64) {
	if rsp, ok := br.advance(cycle); ok {
		if br.req.Write {
			br.acked(len(br.req.Data), rsp.Resp == ahb.RespOkay)
		} else {
			br.rd.got = append(br.rd.got, rsp.Data...)
		}
	}
	if len(br.ackQ) > 0 && br.port.Ack.CanPush(1) {
		br.port.Ack.Push(br.ackQ[0])
		br.ackQ = br.ackQ[1:]
	}
	if d, ok := br.port.Desc.Pop(); ok {
		switch d.Op {
		case prop.OpStreamWrite:
			if br.wr != nil {
				panic("bus: prop bridge supports one write stream at a time")
			}
			br.wr = &propBridgeWr{d: d}
			br.demoted++ // concurrency lost vs the socket's contract
		case prop.OpStreamRead:
			if br.rd != nil {
				panic("bus: prop bridge supports one read stream at a time")
			}
			br.rd = &propBridgeRd{d: d}
			br.demoted++
		}
	}
	if c, ok := br.port.Wr.Pop(); ok {
		if br.wr == nil || c.StreamID != br.wr.d.StreamID {
			panic(fmt.Sprintf("bus: prop bridge chunk for unexpected stream %d", c.StreamID))
		}
		br.wr.buf = append(br.wr.buf, c.Data...)
		br.wr.gotLast = br.wr.gotLast || c.Last
	}
	br.emitReadChunk()
	if br.busy() {
		return
	}
	br.issueWrite(cycle)
	if !br.busy() {
		br.issueRead(cycle)
	}
}

// acked settles a write chunk of sz bytes that crossed back.
func (br *PropBridge) acked(sz int, ok bool) {
	st := br.wr
	st.acked += sz
	st.ackPend += (sz + prop.ChunkBytes - 1) / prop.ChunkBytes
	for st.ackPend >= prop.AckEvery {
		br.ackQ = append(br.ackQ, prop.Ack{StreamID: st.d.StreamID, Chunks: prop.AckEvery, OK: ok})
		st.ackPend -= prop.AckEvery
	}
	if st.gotLast && len(st.buf) == 0 && st.acked == st.sent {
		br.ackQ = append(br.ackQ, prop.Ack{StreamID: st.d.StreamID, Chunks: st.ackPend, Done: true, OK: ok})
		br.wr = nil
	}
}

func (br *PropBridge) issueWrite(cycle int64) {
	st := br.wr
	if st == nil || len(st.buf) == 0 {
		return
	}
	if len(st.buf) < 64 && !st.gotLast {
		return
	}
	sz := len(st.buf)
	if sz > 64 {
		sz = 64
	}
	data := append([]byte(nil), st.buf[:sz]...)
	st.buf = st.buf[sz:]
	addr := st.d.Addr + uint64(st.sent)
	st.sent += sz
	br.start(cycle, ahb.Req{Write: true, Addr: addr, Size: 1, Burst: ahb.BurstIncr, Data: data})
}

func (br *PropBridge) issueRead(cycle int64) {
	st := br.rd
	if st == nil || st.issued >= st.d.Bytes {
		return
	}
	sz := st.d.Bytes - st.issued
	if sz > 64 {
		sz = 64
	}
	addr := st.d.Addr + uint64(st.issued)
	st.issued += sz
	br.start(cycle, ahb.Req{Addr: addr, Size: 1, Burst: ahb.BurstIncr, Beats: sz})
}

func (br *PropBridge) emitReadChunk() {
	st := br.rd
	if st == nil || !br.port.Rd.CanPush(1) {
		return
	}
	avail := len(st.got) - st.emitted
	if avail <= 0 {
		return
	}
	isTail := st.emitted+avail == st.d.Bytes
	if avail < prop.ChunkBytes && !isTail {
		return
	}
	sz := avail
	if sz > prop.ChunkBytes {
		sz = prop.ChunkBytes
	}
	last := st.emitted+sz == st.d.Bytes
	br.port.Rd.Push(prop.Chunk{StreamID: st.d.StreamID, Data: st.got[st.emitted : st.emitted+sz], Last: last})
	st.emitted += sz
	if last {
		br.rd = nil
	}
}
