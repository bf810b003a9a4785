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

	"gonoc/internal/mem"
	"gonoc/internal/protocols"
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

// MemBurst maps the request's burst onto mem's address rule: WRAPx
// wraps at its own x beats.
func (r Req) MemBurst() mem.Burst {
	if r.Burst.Wraps() {
		return mem.Burst{Wrap: r.NumBeats()}
	}
	return mem.Burst{}
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
	protocols.Target[Req, Rsp]
	store *mem.Backing
	base  uint64
	cfg   MemoryConfig
	seen  uint64 // transactions accepted
	ring  mem.Ring
}

// NewMemory creates an AHB memory slave.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64, cfg MemoryConfig) *Memory {
	m := &Memory{store: store, base: base, cfg: cfg, ring: mem.NewRing(port.Rsp.Cap())}
	m.Bind(clk, port.Req, port.Rsp, m.cost, m.serve)
	return m
}

// retry reports whether the transaction accepted last is answered RETRY.
func (m *Memory) retry() bool { return m.cfg.RetryEvery > 0 && m.seen%uint64(m.cfg.RetryEvery) == 0 }

// cost prices a burst's data phase: wait states plus one cycle per
// beat. A RETRY is answered at once.
func (m *Memory) cost(req Req) int {
	m.seen++
	if m.retry() {
		return 0
	}
	return m.cfg.WaitStates + req.NumBeats() - 1
}

func (m *Memory) serve(req Req) Rsp {
	if m.retry() {
		return Rsp{Resp: RespRetry}
	}
	if req.Write {
		m.store.WriteBurst(req.Data, nil, req.MemBurst(), req.Addr, m.base, req.Size)
		return Rsp{Resp: RespOkay}
	}
	data := m.ring.Next(req.NumBeats() * int(req.Size))
	m.store.ReadBurst(data, req.MemBurst(), req.Addr, m.base, req.Size)
	return Rsp{Resp: RespOkay, Data: data}
}
