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
	"math"
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
	m.Bind(clk, port.Req, port.Rsp, 1, func(r PRsp) (int, []byte, bool) { return 0, r.Data, r.Err })
	return m
}

// Read queues a single-word read. cb's data is valid only during the
// call: the socket's slave reuses its buffer for a later read.
func (m *PMaster) Read(addr uint64, n int, cb func(data []byte, err bool)) {
	if n < 1 || n > 4 {
		panic(fmt.Sprintf("vci: PVCI read of %d bytes", n))
	}
	m.Enqueue(0, PReq{Addr: addr, N: n}, cb, nil)
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
	m.Enqueue(0, PReq{Addr: addr, Write: true, Data: data, BE: be}, nil, cb)
}

// PMemory is a PVCI memory slave.
type PMemory struct {
	protocols.Target[PReq, PRsp]
	store   *mem.Backing
	base    uint64
	latency int
	ring    mem.Ring
}

// NewPMemory creates a PVCI memory slave.
func NewPMemory(clk *sim.Clock, port *PPort, store *mem.Backing, base uint64, latency int) *PMemory {
	m := &PMemory{store: store, base: base, latency: latency, ring: mem.NewRing(port.Rsp.Cap())}
	m.Bind(clk, port.Req, port.Rsp, func(PReq) int { return m.latency }, m.serve)
	return m
}

func (m *PMemory) serve(req PReq) PRsp {
	if req.Write {
		m.store.Write(req.Addr-m.base, req.Data, req.BE)
		return PRsp{}
	}
	n := req.N
	if n < 1 || n > 4 {
		n = 4
	}
	data := m.ring.Next(n)
	m.store.ReadInto(req.Addr-m.base, data)
	return PRsp{Data: data}
}

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
	m.Bind(clk, port.Req, port.Rsp, pipeline, func(r BRsp) (int, []byte, bool) { return 0, r.Data, r.Err })
	return m
}

// Read queues a burst read, wrapping at its beats×size window if wrap.
// cb's data is valid only during the call: the socket's slave reuses
// its buffer for a later read.
func (m *BMaster) Read(addr uint64, size uint8, beats int, wrap bool, cb func([]byte, bool)) {
	m.Enqueue(0, BReq{Op: OpRead, Addr: addr, Size: size, Beats: beats, Wrap: wrap}, cb, nil)
}

// Write queues a burst write, wrapping like Read, with per-byte enables
// be (nil enables every byte). data and be must stay unchanged until cb
// runs.
func (m *BMaster) Write(addr uint64, size uint8, data, be []byte, wrap bool, cb func(bool)) {
	m.Enqueue(0, writeReq(addr, size, data, be, wrap), nil, cb)
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

// MemBurst maps the burst onto mem's address rule: a wrapping burst
// wraps at its own beats×size window.
func (r BReq) MemBurst() mem.Burst {
	if r.Wrap {
		return mem.Burst{Wrap: r.Beats}
	}
	return mem.Burst{}
}

// serveBurst runs a BVCI or AVCI burst against store, mapped at base,
// reading into ring: the read data, or nil for a write.
func serveBurst(req *BReq, store *mem.Backing, base uint64, ring *mem.Ring) []byte {
	if req.Op == OpWrite {
		store.WriteBurst(req.Data, req.BE, req.MemBurst(), req.Addr, base, req.Size)
		return nil
	}
	data := ring.Next(req.Beats * int(req.Size))
	store.ReadBurst(data, req.MemBurst(), req.Addr, base, req.Size)
	return data
}

// BMemory is a BVCI memory slave: in-order, one cell per cycle.
type BMemory struct {
	protocols.Target[BReq, BRsp]
	store   *mem.Backing
	base    uint64
	latency int
	ring    mem.Ring
}

// NewBMemory creates a BVCI memory slave.
func NewBMemory(clk *sim.Clock, port *BPort, store *mem.Backing, base uint64, latency int) *BMemory {
	m := &BMemory{store: store, base: base, latency: latency, ring: mem.NewRing(port.Rsp.Cap())}
	m.Bind(clk, port.Req, port.Rsp,
		func(req BReq) int { return m.latency + req.Beats - 1 }, // one cell per cycle
		func(req BReq) BRsp { return BRsp{Data: serveBurst(&req, m.store, m.base, &m.ring)} })
	return m
}

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
	protocols.InOrder[AReq, ARsp]
}

// NewAMaster creates an AVCI master.
func NewAMaster(clk *sim.Clock, port *APort) *AMaster {
	m := &AMaster{}
	m.Bind(clk, port.Req, port.Rsp, math.MaxInt, func(r ARsp) (int, []byte, bool) { return r.ID, r.Data, r.Err })
	return m
}

// Read queues a burst read on an ID, wrapping like BMaster.Read. cb's
// data is valid only during the call: the socket's slave reuses its
// buffer for a later read.
func (m *AMaster) Read(id int, addr uint64, size uint8, beats int, wrap bool, cb func([]byte, bool)) {
	m.Enqueue(id, AReq{BReq: BReq{Op: OpRead, Addr: addr, Size: size, Beats: beats, Wrap: wrap}, ID: id}, cb, nil)
}

// Write queues a burst write on an ID, wrapping like BMaster.Read, with
// per-byte enables be (nil enables every byte). data and be must stay
// unchanged until cb runs.
func (m *AMaster) Write(id int, addr uint64, size uint8, data, be []byte, wrap bool, cb func(bool)) {
	m.Enqueue(id, AReq{BReq: writeReq(addr, size, data, be, wrap), ID: id}, nil, cb)
}

// AMemory is an AVCI memory slave; with Reorder it services queued bursts
// LIFO across IDs (never reordering within an ID).
type AMemory struct {
	port    *APort
	store   *mem.Backing
	base    uint64
	latency int
	reorder bool
	ring    mem.Ring

	q    []AReq
	cur  AReq // the burst in service, valid while busy
	busy bool
	wait int
}

// NewAMemory creates an AVCI memory slave.
func NewAMemory(clk *sim.Clock, port *APort, store *mem.Backing, base uint64, latency int, reorder bool) *AMemory {
	m := &AMemory{port: port, store: store, base: base, latency: latency, reorder: reorder, ring: mem.NewRing(port.Rsp.Cap())}
	clk.Register(m).Consumes(port.Req)
	return m
}

// Eval implements sim.Clocked.
func (m *AMemory) Eval(cycle int64) {
	if req, ok := m.port.Req.Pop(); ok {
		m.q = append(m.q, req)
	}
	if !m.busy && len(m.q) > 0 {
		pick := 0
		if m.reorder {
			pick = protocols.NewestPick(m.q, func(r *AReq) int { return r.ID })
		}
		m.cur, m.busy = m.q[pick], true
		m.q = slices.Delete(m.q, pick, pick+1)
		m.wait = m.latency + m.cur.Beats - 1
	}
	if !m.busy {
		return
	}
	if m.wait > 0 {
		m.wait--
		return
	}
	if !m.port.Rsp.CanPush(1) {
		return
	}
	m.port.Rsp.Push(ARsp{BRsp: BRsp{Data: serveBurst(&m.cur.BReq, m.store, m.base, &m.ring)}, ID: m.cur.ID})
	m.cur, m.busy = AReq{}, false
}

// Idle implements sim.Idler: no request queued, in service or on the
// socket.
func (m *AMemory) Idle() bool { return !m.busy && len(m.q) == 0 && m.port.Req.Empty() }
