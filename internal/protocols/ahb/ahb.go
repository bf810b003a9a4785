// Package ahb models the AMBA AHB 2.0 socket at transfer level. AHB is
// the fully-ordered, single-outstanding archetype among the paper's
// sockets: one address/data pipeline, responses strictly in request
// order, locked sequences via HLOCK, and RETRY/SPLIT slave responses.
//
// Granularity: one Req per burst (the per-beat pipeline is folded into
// timing on the slave side), which preserves everything the transaction
// layer cares about — ordering, lock semantics, burst kinds — at a
// fraction of the modeling cost.
package ahb

import (
	"fmt"
	"slices"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

// Burst is an AHB burst kind (HBURST).
type Burst uint8

// AHB burst kinds.
const (
	BurstSingle Burst = iota
	BurstIncr         // undefined-length INCR: Req.Beats gives the length
	BurstIncr4
	BurstWrap4
	BurstIncr8
	BurstWrap8
	BurstIncr16
	BurstWrap16
)

// String renders a Burst.
func (b Burst) String() string {
	switch b {
	case BurstSingle:
		return "SINGLE"
	case BurstIncr:
		return "INCR"
	case BurstIncr4:
		return "INCR4"
	case BurstWrap4:
		return "WRAP4"
	case BurstIncr8:
		return "INCR8"
	case BurstWrap8:
		return "WRAP8"
	case BurstIncr16:
		return "INCR16"
	case BurstWrap16:
		return "WRAP16"
	default:
		return fmt.Sprintf("HBURST(%d)", uint8(b))
	}
}

// Beats returns the burst length; incrBeats supplies the length for
// undefined-length INCR bursts.
func (b Burst) Beats(incrBeats int) int {
	switch b {
	case BurstSingle:
		return 1
	case BurstIncr:
		if incrBeats < 1 {
			return 1
		}
		return incrBeats
	case BurstIncr4, BurstWrap4:
		return 4
	case BurstIncr8, BurstWrap8:
		return 8
	case BurstIncr16, BurstWrap16:
		return 16
	default:
		return 1
	}
}

// Wraps reports whether the burst wraps.
func (b Burst) Wraps() bool {
	return b == BurstWrap4 || b == BurstWrap8 || b == BurstWrap16
}

// BurstFor picks the encoding of a beats-long burst: SINGLE for one
// beat, the fixed-length INCRx or WRAPx when one matches, and
// undefined-length INCR otherwise (a wrapping length AHB cannot encode
// degrades to INCR).
func BurstFor(wrap bool, beats int) Burst {
	switch {
	case beats == 1:
		return BurstSingle
	case beats == 4 && wrap:
		return BurstWrap4
	case beats == 8 && wrap:
		return BurstWrap8
	case beats == 16 && wrap:
		return BurstWrap16
	case beats == 4:
		return BurstIncr4
	case beats == 8:
		return BurstIncr8
	case beats == 16:
		return BurstIncr16
	}
	return BurstIncr
}

// Resp is an AHB slave response (HRESP).
type Resp uint8

// AHB responses.
const (
	RespOkay Resp = iota
	RespError
	RespRetry
	RespSplit
)

// String renders a Resp.
func (r Resp) String() string {
	switch r {
	case RespOkay:
		return "OKAY"
	case RespError:
		return "ERROR"
	case RespRetry:
		return "RETRY"
	case RespSplit:
		return "SPLIT"
	default:
		return fmt.Sprintf("HRESP(%d)", uint8(r))
	}
}

// Req is one AHB burst transaction.
type Req struct {
	Write  bool
	Addr   uint64
	Size   uint8 // bytes per beat (HSIZE)
	Burst  Burst
	Beats  int  // for undefined-length INCR
	Lock   bool // HLOCK asserted
	Unlock bool // last transfer of the locked sequence
	Data   []byte
}

// NumBeats returns the transaction's beat count.
func (r Req) NumBeats() int { return r.Burst.Beats(r.Beats) }

// Rsp is one AHB burst response.
type Rsp struct {
	Resp Resp
	Data []byte
}

// Port is one AHB socket: fully ordered request/response pipes.
type Port struct {
	Req *sim.Pipe[Req]
	Rsp *sim.Pipe[Rsp]
}

// NewPort creates the pipes on clk.
func NewPort(clk *sim.Clock, name string, depth int) *Port {
	return &Port{
		Req: sim.NewPipe[Req](clk, name+".Req", depth),
		Rsp: sim.NewPipe[Rsp](clk, name+".Rsp", depth),
	}
}

// BeatAddr computes AHB address progression.
func BeatAddr(b Burst, addr uint64, size uint8, beats, i int) uint64 {
	s := uint64(size)
	if b.Wraps() {
		window := uint64(beats) * s
		base := addr &^ (window - 1)
		return base + (addr+uint64(i)*s-base)%window
	}
	return addr + uint64(i)*s
}

// ReadResult is delivered to read callbacks.
type ReadResult struct {
	Data []byte
	Resp Resp
}

// Master is a transfer-level AHB master: fully ordered, with a
// configurable pipeline depth (real AHB masters overlap the address
// phase of transfer N+1 with the data phase of N, i.e. depth 2).
// RETRY and SPLIT responses are re-issued automatically.
type Master struct {
	port     *Port
	pipeline int

	// pend holds the transactions in order: the first sent of them are
	// issued and await their responses, the rest wait to issue.
	pend []ahbCtx
	sent int
	// cancelled counts transfers pipelined behind a RETRY or SPLIT: they
	// were re-queued, and the responses they still receive are dropped.
	cancelled int

	issued, completed, retries uint64

	wake sim.Waker
}

type ahbCtx struct {
	req  Req
	rdCb func(ReadResult)
	wrCb func(Resp)
}

// NewMaster creates a master with the given pipeline depth (>=1).
func NewMaster(clk *sim.Clock, port *Port, pipeline int) *Master {
	if pipeline < 1 {
		pipeline = 1
	}
	m := &Master{port: port, pipeline: pipeline}
	m.wake = clk.Register(m)
	m.wake.Consumes(port.Rsp)
	return m
}

// Busy reports whether work remains.
func (m *Master) Busy() bool { return len(m.pend) > 0 }

// Outstanding returns in-flight transactions.
func (m *Master) Outstanding() int { return len(m.pend) }

// Issued, Completed and Retries return cumulative counters.
func (m *Master) Issued() uint64    { return m.issued }
func (m *Master) Completed() uint64 { return m.completed }
func (m *Master) Retries() uint64   { return m.retries }

// Read queues a read burst. cb's data is valid only during the call: the
// socket's slave reuses its buffer for a later read.
func (m *Master) Read(addr uint64, size uint8, burst Burst, beats int, cb func(ReadResult)) {
	m.enqueue(Req{Addr: addr, Size: size, Burst: burst, Beats: beats}, cb, nil)
}

// ReadLocked queues a locked read (HLOCK), opening a locked sequence.
func (m *Master) ReadLocked(addr uint64, size uint8, cb func(ReadResult)) {
	m.enqueue(Req{Addr: addr, Size: size, Burst: BurstSingle, Lock: true}, cb, nil)
}

// Write queues a write burst. data must stay unchanged until cb runs.
func (m *Master) Write(addr uint64, size uint8, burst Burst, data []byte, cb func(Resp)) {
	m.enqueue(Req{Write: true, Addr: addr, Size: size, Burst: burst,
		Beats: len(data) / int(size), Data: data}, nil, cb)
}

// WriteUnlock queues the closing write of a locked sequence.
func (m *Master) WriteUnlock(addr uint64, size uint8, data []byte, cb func(Resp)) {
	m.enqueue(Req{Write: true, Addr: addr, Size: size, Burst: BurstSingle,
		Lock: true, Unlock: true, Data: data}, nil, cb)
}

func (m *Master) enqueue(r Req, rdCb func(ReadResult), wrCb func(Resp)) {
	if r.Write && len(r.Data) != r.NumBeats()*int(r.Size) {
		panic(fmt.Sprintf("ahb: write data %dB != %d beats x %dB", len(r.Data), r.NumBeats(), r.Size))
	}
	m.pend = append(m.pend, ahbCtx{req: r, rdCb: rdCb, wrCb: wrCb})
	m.issued++
	m.wake.Wake()
}

// Eval implements sim.Clocked.
func (m *Master) Eval(cycle int64) {
	// Issue while the pipeline has room. AHB is fully ordered: requests
	// go out strictly in order, limited by pipeline depth.
	if m.sent < len(m.pend) && m.sent+m.cancelled < m.pipeline && m.port.Req.CanPush(1) {
		m.port.Req.Push(m.pend[m.sent].req)
		m.sent++
	}
	// Responses arrive strictly in order.
	if rsp, ok := m.port.Rsp.Pop(); ok {
		if m.cancelled > 0 {
			m.cancelled--
			return
		}
		if m.sent == 0 {
			panic("ahb: response with nothing outstanding")
		}
		if rsp.Resp == RespRetry || rsp.Resp == RespSplit {
			// Re-issue the transaction, and cancel and re-issue the
			// transfers pipelined behind it, in order: their responses
			// would otherwise complete the wrong transaction.
			m.retries++
			m.cancelled, m.sent = m.sent-1, 0
			return
		}
		ctx := m.pend[0]
		m.pend = sim.DropFront(m.pend, 1)
		m.sent--
		m.completed++
		if ctx.rdCb != nil {
			ctx.rdCb(ReadResult{Data: rsp.Data, Resp: rsp.Resp})
		}
		if ctx.wrCb != nil {
			ctx.wrCb(rsp.Resp)
		}
	}
}

// Idle implements sim.Idler: no response on the socket, and no request
// queued that the pipeline would let out (a full pipeline waits for a
// response).
func (m *Master) Idle() bool {
	return m.port.Rsp.Empty() && (m.sent == len(m.pend) || m.sent+m.cancelled >= m.pipeline)
}

// MemoryConfig parameterizes an AHB memory slave.
type MemoryConfig struct {
	// WaitStates is HREADY-low cycles before a transaction's data phase.
	WaitStates int
	// RetryEvery makes the slave answer RETRY to every Nth transaction
	// (0 disables) — exercising the AHB retry path.
	RetryEvery int
}

// Memory is a transfer-level AHB memory slave.
type Memory struct {
	port  *Port
	store *mem.Backing
	base  uint64
	cfg   MemoryConfig

	cur    Req // the transaction being served, valid while busy
	busy   bool
	wait   int
	seen   uint64
	served uint64

	// The read data ring: a response's buffer is reused only after the
	// response pipe's depth of later responses, when its reader has
	// popped it.
	rbuf  [][]byte
	rnext int
}

// NewMemory creates an AHB memory slave.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64, cfg MemoryConfig) *Memory {
	m := &Memory{port: port, store: store, base: base, cfg: cfg, rbuf: make([][]byte, port.Rsp.Cap()+1)}
	clk.Register(m).Consumes(port.Req)
	return m
}

// Served returns completed transactions.
func (m *Memory) Served() uint64 { return m.served }

// Eval implements sim.Clocked.
func (m *Memory) Eval(cycle int64) {
	if !m.busy {
		req, ok := m.port.Req.Pop()
		if !ok {
			return
		}
		m.cur, m.busy = req, true
		m.seen++
		// Burst data phase: wait states + one cycle per beat.
		m.wait = m.cfg.WaitStates + req.NumBeats() - 1
		if m.cfg.RetryEvery > 0 && m.seen%uint64(m.cfg.RetryEvery) == 0 {
			m.wait = 0 // retry answered immediately
		}
	}
	if m.wait > 0 {
		m.wait--
		return
	}
	if !m.port.Rsp.CanPush(1) {
		return
	}
	req := &m.cur
	if m.cfg.RetryEvery > 0 && m.seen%uint64(m.cfg.RetryEvery) == 0 {
		m.port.Rsp.Push(Rsp{Resp: RespRetry})
		m.cur, m.busy = Req{}, false
		return
	}
	beats := req.NumBeats()
	if req.Write {
		s := int(req.Size)
		for i := 0; i < beats; i++ {
			addr := BeatAddr(req.Burst, req.Addr, req.Size, beats, i) - m.base
			m.store.Write(addr, req.Data[i*s:(i+1)*s], nil)
		}
		m.port.Rsp.Push(Rsp{Resp: RespOkay})
	} else {
		s := int(req.Size)
		data := slices.Grow(m.rbuf[m.rnext][:0], beats*s)[:beats*s]
		m.rbuf[m.rnext] = data
		m.rnext = (m.rnext + 1) % len(m.rbuf)
		for i := 0; i < beats; i++ {
			addr := BeatAddr(req.Burst, req.Addr, req.Size, beats, i) - m.base
			m.store.ReadInto(addr, data[i*s:(i+1)*s])
		}
		m.port.Rsp.Push(Rsp{Resp: RespOkay, Data: data})
	}
	m.cur, m.busy = Req{}, false
	m.served++
}

// Idle implements sim.Idler: no transaction in service or on the socket.
func (m *Memory) Idle() bool { return !m.busy && m.port.Req.Empty() }
