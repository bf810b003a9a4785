package axi

import (
	"fmt"
	"slices"

	"gonoc/internal/sim"
)

// ReadResult is delivered to a read callback.
type ReadResult struct {
	Data []byte
	Resp Resp
}

// Master is a transfer-level AXI master engine: IP models (CPU/DMA
// traffic generators) call Read/Write and receive callbacks on
// completion. It drives one beat per channel per cycle and enforces the
// master-side channel rules (W data in AW order).
type Master struct {
	port    *Port
	checker *Checker // optional

	arQ []ARBeat
	awQ []AWBeat
	wQ  []WBeat // flattened write data, strictly in AW issue order

	reads     map[int][]*readCtx   // per-ID FIFO of outstanding reads
	writes    map[int][]func(Resp) // per-ID FIFO of outstanding writes' callbacks
	freeReads []*readCtx           // completed reads, reused with their data buffers

	outstanding int
	issued      uint64
	completed   uint64

	wake sim.Waker
}

type readCtx struct {
	beats int
	got   []byte
	resp  Resp
	cb    func(ReadResult)
}

// NewMaster creates a master engine on port and registers it on clk.
func NewMaster(clk *sim.Clock, port *Port, checker *Checker) *Master {
	m := &Master{
		port:    port,
		checker: checker,
		reads:   make(map[int][]*readCtx),
		writes:  make(map[int][]func(Resp)),
	}
	m.wake = clk.Register(m)
	m.wake.Consumes(port.R, port.B)
	return m
}

// Outstanding returns in-flight transactions.
func (m *Master) Outstanding() int { return m.outstanding }

// Issued and Completed return cumulative counters.
func (m *Master) Issued() uint64    { return m.issued }
func (m *Master) Completed() uint64 { return m.completed }

// Read queues a read burst. beats must be in [1,MaxBeats]; cb receives
// the assembled data when the last R beat arrives. The data is valid
// only during the call: the master reuses its buffer for a later read.
func (m *Master) Read(id int, addr uint64, size uint8, beats int, burst Burst, cb func(ReadResult)) {
	m.read(id, addr, size, beats, burst, false, cb)
}

// ReadExclusive queues an exclusive read (AXI ARLOCK).
func (m *Master) ReadExclusive(id int, addr uint64, size uint8, beats int, burst Burst, cb func(ReadResult)) {
	m.read(id, addr, size, beats, burst, true, cb)
}

func (m *Master) read(id int, addr uint64, size uint8, beats int, burst Burst, lock bool, cb func(ReadResult)) {
	if beats < 1 || beats > MaxBeats {
		panic(fmt.Sprintf("axi: read burst of %d beats", beats))
	}
	ar := ARBeat{ID: id, Addr: addr, Len: uint8(beats - 1), Size: size, Burst: burst, Lock: lock}
	m.arQ = append(m.arQ, ar)
	var c *readCtx
	if n := len(m.freeReads); n > 0 {
		c, m.freeReads = m.freeReads[n-1], m.freeReads[:n-1]
	} else {
		c = new(readCtx)
	}
	*c = readCtx{beats: beats, got: slices.Grow(c.got[:0], beats*int(size)), cb: cb}
	m.reads[id] = append(m.reads[id], c)
	m.outstanding++
	m.issued++
	m.wake.Wake()
}

// Write queues a write burst; data length determines the beat count.
// data must stay unchanged until cb runs.
func (m *Master) Write(id int, addr uint64, size uint8, burst Burst, data []byte, cb func(Resp)) {
	m.write(id, addr, size, burst, data, nil, false, cb)
}

// WriteStrobed queues a write with per-byte strobes.
func (m *Master) WriteStrobed(id int, addr uint64, size uint8, burst Burst, data, strb []byte, cb func(Resp)) {
	m.write(id, addr, size, burst, data, strb, false, cb)
}

// WriteExclusive queues an exclusive write (AXI AWLOCK). The callback's
// Resp is RespEXOKAY on success and RespOKAY on a failed exclusive.
func (m *Master) WriteExclusive(id int, addr uint64, size uint8, burst Burst, data []byte, cb func(Resp)) {
	m.write(id, addr, size, burst, data, nil, true, cb)
}

func (m *Master) write(id int, addr uint64, size uint8, burst Burst, data, strb []byte, lock bool, cb func(Resp)) {
	if size == 0 || len(data)%int(size) != 0 || len(data) == 0 {
		panic(fmt.Sprintf("axi: write data %dB not a multiple of size %d", len(data), size))
	}
	beats := len(data) / int(size)
	if beats > MaxBeats {
		panic(fmt.Sprintf("axi: write burst of %d beats", beats))
	}
	aw := AWBeat{ID: id, Addr: addr, Len: uint8(beats - 1), Size: size, Burst: burst, Lock: lock}
	m.awQ = append(m.awQ, aw)
	for i := 0; i < beats; i++ {
		w := WBeat{Data: data[i*int(size) : (i+1)*int(size)], Last: i == beats-1}
		if strb != nil {
			w.Strb = strb[i*int(size) : (i+1)*int(size)]
		}
		m.wQ = append(m.wQ, w)
	}
	m.writes[id] = append(m.writes[id], cb)
	m.outstanding++
	m.issued++
	m.wake.Wake()
}

// Eval implements sim.Clocked: one beat per channel per cycle.
func (m *Master) Eval(cycle int64) {
	if len(m.arQ) > 0 && m.port.AR.CanPush(1) {
		m.port.AR.Push(m.arQ[0])
		if m.checker != nil {
			m.checker.OnAR(m.arQ[0])
		}
		m.arQ = sim.DropFront(m.arQ, 1)
	}
	if len(m.awQ) > 0 && m.port.AW.CanPush(1) {
		m.port.AW.Push(m.awQ[0])
		if m.checker != nil {
			m.checker.OnAW(m.awQ[0])
		}
		m.awQ = sim.DropFront(m.awQ, 1)
	}
	if len(m.wQ) > 0 && m.port.W.CanPush(1) {
		m.port.W.Push(m.wQ[0])
		if m.checker != nil {
			m.checker.OnW(m.wQ[0])
		}
		m.wQ = sim.DropFront(m.wQ, 1)
	}
	if r, ok := m.port.R.Pop(); ok {
		if m.checker != nil {
			m.checker.OnR(r)
		}
		q := m.reads[r.ID]
		if len(q) == 0 {
			panic(fmt.Sprintf("axi: R beat for ID %d with no outstanding read", r.ID))
		}
		ctx := q[0]
		ctx.got = append(ctx.got, r.Data...)
		if r.Resp != RespOKAY && ctx.resp == RespOKAY {
			ctx.resp = r.Resp // first non-OKAY beat wins (incl. EXOKAY)
		}
		if r.Last {
			m.reads[r.ID] = sim.DropFront(q, 1)
			m.outstanding--
			m.completed++
			res, cb := ReadResult{Data: ctx.got, Resp: ctx.resp}, ctx.cb
			ctx.cb = nil
			m.freeReads = append(m.freeReads, ctx)
			if cb != nil {
				cb(res)
			}
		}
	}
	if b, ok := m.port.B.Pop(); ok {
		if m.checker != nil {
			m.checker.OnB(b)
		}
		q := m.writes[b.ID]
		if len(q) == 0 {
			panic(fmt.Sprintf("axi: B beat for ID %d with no outstanding write", b.ID))
		}
		cb := q[0]
		m.writes[b.ID] = sim.DropFront(q, 1)
		m.outstanding--
		m.completed++
		if cb != nil {
			cb(b.Resp)
		}
	}
}

// Idle implements sim.Idler: no beat queued for the socket and no
// response beat waiting on it.
func (m *Master) Idle() bool {
	return len(m.arQ) == 0 && len(m.awQ) == 0 && len(m.wQ) == 0 && m.port.R.Empty() && m.port.B.Empty()
}
