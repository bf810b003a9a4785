// Package vci models the VSIA Virtual Component Interface socket family
// the paper lists: PVCI (peripheral: single-beat, fully ordered), BVCI
// (basic: bursts, fully ordered), and AVCI (advanced: packet IDs with
// out-of-order responses, AXI-like).
//
// One package holds all three flavours because they share their data
// vocabulary; each flavour gets its own port, master engine and memory
// slave, because their ordering contracts differ — which is the whole
// point of the paper's ordering-model discussion.
package vci

import (
	"fmt"
	"slices"

	"gonoc/internal/mem"
	"gonoc/internal/protocols"
	"gonoc/internal/sim"
)

// ---------------------------------------------------------------- PVCI --

// PReq is a PVCI request: one beat, at most 4 bytes.
type PReq struct {
	Addr  uint64
	Write bool
	Data  []byte // writes only, len <= 4
	BE    []byte
	N     int // read byte count (reads only)
}

// PRsp is a PVCI response.
type PRsp struct {
	Data []byte
	Err  bool
}

// PPort is a PVCI socket.
type PPort struct {
	Req *sim.Pipe[PReq]
	Rsp *sim.Pipe[PRsp]
}

// NewPPort creates a PVCI port.
func NewPPort(clk *sim.Clock, name string, depth int) *PPort {
	return &PPort{
		Req: sim.NewPipe[PReq](clk, name+".Req", depth),
		Rsp: sim.NewPipe[PRsp](clk, name+".Rsp", depth),
	}
}

// PMaster is a PVCI master engine: strictly one outstanding request.
type PMaster struct {
	protocols.InOrder[PReq, PRsp]
}

// NewPMaster creates a PVCI master.
func NewPMaster(clk *sim.Clock, port *PPort) *PMaster {
	m := &PMaster{}
	m.Bind(clk, port.Req, port.Rsp, 1, func(r PRsp) ([]byte, bool) { return r.Data, r.Err })
	return m
}

// Read queues a single-word read. cb's data is valid only during the
// call: the socket's slave reuses its buffer for a later read.
func (m *PMaster) Read(addr uint64, n int, cb func(data []byte, err bool)) {
	if n < 1 || n > 4 {
		panic(fmt.Sprintf("vci: PVCI read of %d bytes", n))
	}
	m.Enqueue(PReq{Addr: addr, N: n}, cb, nil)
}

// Write queues a single-word write. data must stay unchanged until cb
// runs.
func (m *PMaster) Write(addr uint64, data []byte, cb func(err bool)) {
	m.WriteBE(addr, data, nil, cb)
}

// WriteBE queues a single-word write with per-byte enables.
func (m *PMaster) WriteBE(addr uint64, data, be []byte, cb func(err bool)) {
	if len(data) < 1 || len(data) > 4 {
		panic(fmt.Sprintf("vci: PVCI write of %d bytes", len(data)))
	}
	if be != nil && len(be) != len(data) {
		panic(fmt.Sprintf("vci: PVCI byte-enable length %d != data %d", len(be), len(data)))
	}
	m.Enqueue(PReq{Addr: addr, Write: true, Data: data, BE: be}, nil, cb)
}

// PMemory is a PVCI memory slave.
type PMemory struct {
	port    *PPort
	store   *mem.Backing
	base    uint64
	latency int
	wait    int
	cur     PReq // the request being served, valid while busy
	busy    bool
	served  uint64
}

// NewPMemory creates a PVCI memory slave.
func NewPMemory(clk *sim.Clock, port *PPort, store *mem.Backing, base uint64, latency int) *PMemory {
	m := &PMemory{port: port, store: store, base: base, latency: latency}
	clk.Register(m).Consumes(port.Req)
	return m
}

// Served returns completed requests.
func (m *PMemory) Served() uint64 { return m.served }

// Eval implements sim.Clocked.
func (m *PMemory) Eval(cycle int64) {
	if !m.busy {
		req, ok := m.port.Req.Pop()
		if !ok {
			return
		}
		m.cur, m.busy = req, true
		m.wait = m.latency
	}
	if m.wait > 0 {
		m.wait--
		return
	}
	if !m.port.Rsp.CanPush(1) {
		return
	}
	req := &m.cur
	if req.Write {
		m.store.Write(req.Addr-m.base, req.Data, req.BE)
		m.port.Rsp.Push(PRsp{})
	} else {
		n := req.N
		if n < 1 || n > 4 {
			n = 4
		}
		m.port.Rsp.Push(PRsp{Data: m.store.Read(req.Addr-m.base, n)})
	}
	m.cur, m.busy = PReq{}, false
	m.served++
}

// Idle implements sim.Idler: no request in service or on the socket.
func (m *PMemory) Idle() bool { return !m.busy && m.port.Req.Empty() }

// ---------------------------------------------------------------- BVCI --

// BOp is a BVCI opcode.
type BOp uint8

// BVCI opcodes.
const (
	OpRead BOp = iota
	OpWrite
)

// BReq is one BVCI burst (the per-cell handshake folded to burst level).
type BReq struct {
	Op    BOp
	Addr  uint64
	Size  uint8 // bytes per cell
	Beats int
	Wrap  bool
	Data  []byte // writes
	BE    []byte // writes: per-byte enables, nil enables every byte
}

// BRsp is one BVCI burst response.
type BRsp struct {
	Data []byte
	Err  bool
}

// BPort is a BVCI socket.
type BPort struct {
	Req *sim.Pipe[BReq]
	Rsp *sim.Pipe[BRsp]
}

// NewBPort creates a BVCI port.
func NewBPort(clk *sim.Clock, name string, depth int) *BPort {
	return &BPort{
		Req: sim.NewPipe[BReq](clk, name+".Req", depth),
		Rsp: sim.NewPipe[BRsp](clk, name+".Rsp", depth),
	}
}

// BMaster is a BVCI master: fully ordered, pipelined.
type BMaster struct {
	protocols.InOrder[BReq, BRsp]
}

// NewBMaster creates a BVCI master with the given pipeline depth.
func NewBMaster(clk *sim.Clock, port *BPort, pipeline int) *BMaster {
	m := &BMaster{}
	m.Bind(clk, port.Req, port.Rsp, pipeline, func(r BRsp) ([]byte, bool) { return r.Data, r.Err })
	return m
}

// Read queues a burst read, wrapping at its beats×size window if wrap.
// cb's data is valid only during the call: the socket's slave reuses
// its buffer for a later read.
func (m *BMaster) Read(addr uint64, size uint8, beats int, wrap bool, cb func([]byte, bool)) {
	m.Enqueue(BReq{Op: OpRead, Addr: addr, Size: size, Beats: beats, Wrap: wrap}, cb, nil)
}

// Write queues a burst write, wrapping like Read, with per-byte enables
// be (nil enables every byte). data and be must stay unchanged until cb
// runs.
func (m *BMaster) Write(addr uint64, size uint8, data, be []byte, wrap bool, cb func(bool)) {
	m.Enqueue(writeReq(addr, size, data, be, wrap), nil, cb)
}

// writeReq builds a BVCI or AVCI burst write of data in cells of size
// bytes; data must be a whole, non-zero number of cells, and be nil or
// one enable per data byte.
func writeReq(addr uint64, size uint8, data, be []byte, wrap bool) BReq {
	if size == 0 || len(data) == 0 || len(data)%int(size) != 0 {
		panic(fmt.Sprintf("vci: burst write %dB not a multiple of %d", len(data), size))
	}
	if be != nil && len(be) != len(data) {
		panic(fmt.Sprintf("vci: burst byte-enable length %d != data %d", len(be), len(data)))
	}
	return BReq{Op: OpWrite, Addr: addr, Size: size, Beats: len(data) / int(size), Wrap: wrap, Data: data, BE: be}
}

// cell is cell i of a burst's bytes b, s bytes per cell, or nil when b
// is nil (a write without byte enables).
func cell(b []byte, i, s int) []byte {
	if b == nil {
		return nil
	}
	return b[i*s : (i+1)*s]
}

// BMemory is a BVCI memory slave: in-order, one cell per cycle.
type BMemory struct {
	port    *BPort
	store   *mem.Backing
	base    uint64
	latency int
	cur     BReq // the burst being served, valid while busy
	busy    bool
	wait    int
	served  uint64

	// The read data ring: a response's buffer is reused only after the
	// response pipe's depth of later responses, when its reader has
	// popped it.
	rbuf  [][]byte
	rnext int
}

// NewBMemory creates a BVCI memory slave.
func NewBMemory(clk *sim.Clock, port *BPort, store *mem.Backing, base uint64, latency int) *BMemory {
	m := &BMemory{port: port, store: store, base: base, latency: latency, rbuf: make([][]byte, port.Rsp.Cap()+1)}
	clk.Register(m).Consumes(port.Req)
	return m
}

// Served returns completed bursts.
func (m *BMemory) Served() uint64 { return m.served }

func bvciBeatAddr(req BReq, i int) uint64 {
	s := uint64(req.Size)
	if req.Wrap {
		window := uint64(req.Beats) * s
		if window != 0 && window&(window-1) == 0 {
			base := req.Addr &^ (window - 1)
			return base + (req.Addr+uint64(i)*s-base)%window
		}
	}
	return req.Addr + uint64(i)*s
}

// Eval implements sim.Clocked.
func (m *BMemory) Eval(cycle int64) {
	if !m.busy {
		req, ok := m.port.Req.Pop()
		if !ok {
			return
		}
		m.cur, m.busy = req, true
		m.wait = m.latency + req.Beats - 1 // one cell per cycle
	}
	if m.wait > 0 {
		m.wait--
		return
	}
	if !m.port.Rsp.CanPush(1) {
		return
	}
	req := m.cur
	s := int(req.Size)
	if req.Op == OpWrite {
		for i := 0; i < req.Beats; i++ {
			m.store.Write(bvciBeatAddr(req, i)-m.base, cell(req.Data, i, s), cell(req.BE, i, s))
		}
		m.port.Rsp.Push(BRsp{})
	} else {
		data := slices.Grow(m.rbuf[m.rnext][:0], req.Beats*s)[:req.Beats*s]
		m.rbuf[m.rnext] = data
		m.rnext = (m.rnext + 1) % len(m.rbuf)
		for i := 0; i < req.Beats; i++ {
			m.store.ReadInto(bvciBeatAddr(req, i)-m.base, data[i*s:(i+1)*s])
		}
		m.port.Rsp.Push(BRsp{Data: data})
	}
	m.cur, m.busy = BReq{}, false
	m.served++
}

// Idle implements sim.Idler: no burst in service or on the socket.
func (m *BMemory) Idle() bool { return !m.busy && m.port.Req.Empty() }

// ---------------------------------------------------------------- AVCI --

// AReq is an AVCI request: a BVCI burst plus a packet ID. Responses with
// different IDs may return out of order; same-ID responses keep order.
type AReq struct {
	BReq
	ID int
}

// ARsp is an AVCI response.
type ARsp struct {
	BRsp
	ID int
}

// APort is an AVCI socket.
type APort struct {
	Req *sim.Pipe[AReq]
	Rsp *sim.Pipe[ARsp]
}

// NewAPort creates an AVCI port.
func NewAPort(clk *sim.Clock, name string, depth int) *APort {
	return &APort{
		Req: sim.NewPipe[AReq](clk, name+".Req", depth),
		Rsp: sim.NewPipe[ARsp](clk, name+".Rsp", depth),
	}
}

// AMaster is an AVCI master engine: per-ID ordered completions.
type AMaster struct {
	port *APort
	q    []aReqCtx
	pend map[int][]aReqCtx

	issued, completed uint64

	wake sim.Waker
}

type aReqCtx struct {
	req  AReq
	rdCb func([]byte, bool)
	wrCb func(bool)
}

// NewAMaster creates an AVCI master.
func NewAMaster(clk *sim.Clock, port *APort) *AMaster {
	m := &AMaster{port: port, pend: make(map[int][]aReqCtx)}
	m.wake = clk.Register(m)
	m.wake.Consumes(port.Rsp)
	return m
}

// Busy reports whether work remains.
func (m *AMaster) Busy() bool {
	if len(m.q) > 0 {
		return true
	}
	for _, q := range m.pend {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// Issued and Completed return cumulative counters.
func (m *AMaster) Issued() uint64    { return m.issued }
func (m *AMaster) Completed() uint64 { return m.completed }

// Read queues a burst read on an ID, wrapping like BMaster.Read. cb's
// data is valid only during the call: the socket's slave reuses its
// buffer for a later read.
func (m *AMaster) Read(id int, addr uint64, size uint8, beats int, wrap bool, cb func([]byte, bool)) {
	m.q = append(m.q, aReqCtx{req: AReq{BReq: BReq{Op: OpRead, Addr: addr, Size: size, Beats: beats, Wrap: wrap}, ID: id}, rdCb: cb})
	m.issued++
	m.wake.Wake()
}

// Write queues a burst write on an ID, wrapping like BMaster.Read, with
// per-byte enables be (nil enables every byte). data and be must stay
// unchanged until cb runs.
func (m *AMaster) Write(id int, addr uint64, size uint8, data, be []byte, wrap bool, cb func(bool)) {
	m.q = append(m.q, aReqCtx{req: AReq{BReq: writeReq(addr, size, data, be, wrap), ID: id}, wrCb: cb})
	m.issued++
	m.wake.Wake()
}

// Eval implements sim.Clocked.
func (m *AMaster) Eval(cycle int64) {
	if len(m.q) > 0 && m.port.Req.CanPush(1) {
		ctx := m.q[0]
		m.q = sim.DropFront(m.q, 1)
		m.port.Req.Push(ctx.req)
		m.pend[ctx.req.ID] = append(m.pend[ctx.req.ID], ctx)
	}
	if rsp, ok := m.port.Rsp.Pop(); ok {
		q := m.pend[rsp.ID]
		if len(q) == 0 {
			panic(fmt.Sprintf("vci: AVCI response for ID %d with nothing outstanding", rsp.ID))
		}
		ctx := q[0]
		m.pend[rsp.ID] = sim.DropFront(q, 1)
		m.completed++
		if ctx.rdCb != nil {
			ctx.rdCb(rsp.Data, rsp.Err)
		}
		if ctx.wrCb != nil {
			ctx.wrCb(rsp.Err)
		}
	}
}

// Idle implements sim.Idler: no request queued and no response on the
// socket.
func (m *AMaster) Idle() bool { return len(m.q) == 0 && m.port.Rsp.Empty() }

// AMemory is an AVCI memory slave; with Reorder it services queued bursts
// LIFO across IDs (never reordering within an ID).
type AMemory struct {
	port    *APort
	store   *mem.Backing
	base    uint64
	latency int
	reorder bool

	q      []*AReq
	cur    *AReq
	wait   int
	served uint64
}

// NewAMemory creates an AVCI memory slave.
func NewAMemory(clk *sim.Clock, port *APort, store *mem.Backing, base uint64, latency int, reorder bool) *AMemory {
	m := &AMemory{port: port, store: store, base: base, latency: latency, reorder: reorder}
	clk.Register(m).Consumes(port.Req)
	return m
}

// Served returns completed bursts.
func (m *AMemory) Served() uint64 { return m.served }

// Eval implements sim.Clocked.
func (m *AMemory) Eval(cycle int64) {
	if req, ok := m.port.Req.Pop(); ok {
		r := req
		m.q = append(m.q, &r)
	}
	if m.cur == nil && len(m.q) > 0 {
		pick := 0
		if m.reorder {
			for i := len(m.q) - 1; i >= 0; i-- {
				older := false
				for j := 0; j < i; j++ {
					if m.q[j].ID == m.q[i].ID {
						older = true
						break
					}
				}
				if !older {
					pick = i
					break
				}
			}
		}
		m.cur = m.q[pick]
		m.q = append(m.q[:pick], m.q[pick+1:]...)
		m.wait = m.latency + m.cur.Beats - 1
	}
	if m.cur == nil {
		return
	}
	if m.wait > 0 {
		m.wait--
		return
	}
	if !m.port.Rsp.CanPush(1) {
		return
	}
	req := m.cur
	s := int(req.Size)
	if req.Op == OpWrite {
		for i := 0; i < req.Beats; i++ {
			m.store.Write(bvciBeatAddr(req.BReq, i)-m.base, cell(req.Data, i, s), cell(req.BE, i, s))
		}
		m.port.Rsp.Push(ARsp{ID: req.ID})
	} else {
		data := make([]byte, 0, req.Beats*s)
		for i := 0; i < req.Beats; i++ {
			data = append(data, m.store.Read(bvciBeatAddr(req.BReq, i)-m.base, s)...)
		}
		m.port.Rsp.Push(ARsp{BRsp: BRsp{Data: data}, ID: req.ID})
	}
	m.cur = nil
	m.served++
}

// Idle implements sim.Idler: no request queued, in service or on the
// socket.
func (m *AMemory) Idle() bool { return m.cur == nil && len(m.q) == 0 && m.port.Req.Empty() }
