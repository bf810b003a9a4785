package ocp

import (
	"fmt"
	"slices"

	"gonoc/internal/sim"
)

// ReadResult is delivered to read callbacks.
type ReadResult struct {
	Data []byte
	Resp SResp
}

// Master is a transfer-level OCP master engine. Completion callbacks fire
// when the last response beat of a transaction arrives — except posted
// writes (CmdWR), which complete when the last request beat is accepted,
// exactly the "WRITEs without responses" the paper calls out.
type Master struct {
	port *Port

	reqQ sim.Queue[ReqBeat] // request beats awaiting acceptance

	// Per-thread FIFO of expected responses.
	pending map[int][]*ocpCtx
	// Contexts of completed transactions, reused by later ones; a read's
	// keeps its data buffer.
	free []*ocpCtx

	outstanding int // transactions with responses still due
	posted      uint64
	issued      uint64
	completed   uint64

	wake sim.Waker
}

type ocpCtx struct {
	cmd   Cmd
	beats int
	got   []byte
	resp  SResp
	rdCb  func(ReadResult)
	wrCb  func(SResp)
}

// NewMaster creates a master engine on port and registers it on clk.
func NewMaster(clk *sim.Clock, port *Port) *Master {
	m := &Master{port: port, pending: make(map[int][]*ocpCtx)}
	m.wake = clk.Register(m)
	m.wake.Consumes(port.Resp)
	return m
}

// Outstanding returns transactions awaiting responses.
func (m *Master) Outstanding() int { return m.outstanding }

// Busy reports whether any work remains (queued beats or outstanding
// responses).
func (m *Master) Busy() bool { return m.outstanding > 0 || !m.reqQ.Empty() }

// Issued, Completed and Posted return cumulative counters.
func (m *Master) Issued() uint64    { return m.issued }
func (m *Master) Completed() uint64 { return m.completed }
func (m *Master) Posted() uint64    { return m.posted }

// Read queues a burst read on a thread. cb's data is valid only during
// the call: the master reuses its buffer for a later read.
func (m *Master) Read(thread int, addr uint64, size uint8, beats int, seq BurstSeq, cb func(ReadResult)) {
	m.issued++
	m.outstanding++
	m.expect(thread, ocpCtx{cmd: CmdRD, beats: beats, rdCb: cb}, beats*int(size))
	for i := 0; i < beats; i++ {
		m.reqQ.Push(ReqBeat{
			Cmd: CmdRD, Addr: addr, ThreadID: thread, Size: size,
			BurstLen: beats, Seq: seq, Last: i == beats-1,
		})
	}
	m.wake.Wake()
}

// ReadLinked queues a lazy-synchronization linked read (single beat).
func (m *Master) ReadLinked(thread int, addr uint64, size uint8, cb func(ReadResult)) {
	m.issued++
	m.outstanding++
	m.expect(thread, ocpCtx{cmd: CmdRDL, beats: 1, rdCb: cb}, int(size))
	m.reqQ.Push(ReqBeat{
		Cmd: CmdRDL, Addr: addr, ThreadID: thread, Size: size, BurstLen: 1, Last: true,
	})
	m.wake.Wake()
}

// Write queues a POSTED write burst: cb (optional) fires when the last
// beat is accepted by the socket; no response will arrive. be holds one
// enable per data byte (nil enables every byte).
func (m *Master) Write(thread int, addr uint64, size uint8, seq BurstSeq, data, be []byte, cb func()) {
	beats := m.wbeats(size, data, be)
	m.issued++
	m.posted++
	for i := 0; i < beats; i++ {
		b := ReqBeat{
			Cmd: CmdWR, Addr: addr, ThreadID: thread, Size: size,
			BurstLen: beats, Seq: seq, Last: i == beats-1,
			Data: beat(data, i, size), ByteEn: beat(be, i, size),
		}
		if b.Last {
			// Completion is the acceptance of the final beat.
			b.onAccept = cb
		}
		m.reqQ.Push(b)
	}
	m.wake.Wake()
}

// WriteNonPosted queues a write that receives a DVA response. be holds
// one enable per data byte (nil enables every byte). data and be must
// stay unchanged until cb runs.
func (m *Master) WriteNonPosted(thread int, addr uint64, size uint8, seq BurstSeq, data, be []byte, cb func(SResp)) {
	beats := m.wbeats(size, data, be)
	m.issued++
	m.outstanding++
	m.expect(thread, ocpCtx{cmd: CmdWRNP, beats: 1, wrCb: cb}, 0)
	for i := 0; i < beats; i++ {
		m.reqQ.Push(ReqBeat{
			Cmd: CmdWRNP, Addr: addr, ThreadID: thread, Size: size,
			BurstLen: beats, Seq: seq, Last: i == beats-1,
			Data: beat(data, i, size), ByteEn: beat(be, i, size),
		})
	}
	m.wake.Wake()
}

// WriteConditional queues a lazy-synchronization conditional write
// (single beat); the response is DVA on success, FAIL if the reservation
// was lost.
func (m *Master) WriteConditional(thread int, addr uint64, size uint8, data []byte, cb func(SResp)) {
	if len(data) != int(size) {
		panic(fmt.Sprintf("ocp: WRC data %dB != size %d", len(data), size))
	}
	m.issued++
	m.outstanding++
	m.expect(thread, ocpCtx{cmd: CmdWRC, beats: 1, wrCb: cb}, 0)
	m.reqQ.Push(ReqBeat{
		Cmd: CmdWRC, Addr: addr, ThreadID: thread, Size: size, BurstLen: 1, Last: true, Data: data,
	})
	m.wake.Wake()
}

// expect queues c's response on thread in a context from the free list,
// with room for room bytes of read data.
func (m *Master) expect(thread int, c ocpCtx, room int) {
	var p *ocpCtx
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = new(ocpCtx)
	}
	c.got = slices.Grow(p.got[:0], room)
	*p = c
	m.pending[thread] = append(m.pending[thread], p)
}

func (m *Master) wbeats(size uint8, data, be []byte) int {
	if size == 0 || len(data) == 0 || len(data)%int(size) != 0 {
		panic(fmt.Sprintf("ocp: write data %dB not a multiple of size %d", len(data), size))
	}
	if be != nil && len(be) != len(data) {
		panic(fmt.Sprintf("ocp: %d byte enables for %dB of write data", len(be), len(data)))
	}
	return len(data) / int(size)
}

// beat returns beat i of a burst's data or enables, nil for nil.
func beat(b []byte, i int, size uint8) []byte {
	if b == nil {
		return nil
	}
	return b[i*int(size) : (i+1)*int(size)]
}

// Eval implements sim.Clocked: one request beat out, one response beat in
// per cycle.
func (m *Master) Eval(cycle int64) {
	if !m.reqQ.Empty() && m.port.Req.CanPush(1) {
		b, _ := m.reqQ.Pop()
		m.port.Req.Push(b)
		if b.onAccept != nil {
			b.onAccept()
		}
	}
	if r, ok := m.port.Resp.Pop(); ok {
		q := m.pending[r.ThreadID]
		if len(q) == 0 {
			panic(fmt.Sprintf("ocp: response on thread %d with nothing outstanding", r.ThreadID))
		}
		ctx := q[0]
		ctx.got = append(ctx.got, r.Data...)
		if r.Resp != RespDVA && ctx.resp == RespNull {
			ctx.resp = r.Resp
		}
		if r.Last {
			m.pending[r.ThreadID] = sim.DropFront(q, 1)
			m.outstanding--
			m.completed++
			resp := ctx.resp
			if resp == RespNull {
				resp = RespDVA
			}
			got, rdCb, wrCb := ctx.got, ctx.rdCb, ctx.wrCb
			ctx.rdCb, ctx.wrCb = nil, nil
			m.free = append(m.free, ctx)
			if rdCb != nil {
				rdCb(ReadResult{Data: got, Resp: resp})
			}
			if wrCb != nil {
				wrCb(resp)
			}
		}
	}
}

// Idle implements sim.Idler: no request beat queued and no response
// beat waiting on the socket.
func (m *Master) Idle() bool { return m.reqQ.Empty() && m.port.Resp.Empty() }
