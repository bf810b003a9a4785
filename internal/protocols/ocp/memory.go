package ocp

import (
	"fmt"
	"slices"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

// MemoryConfig parameterizes an OCP memory slave.
type MemoryConfig struct {
	// Latency is cycles between the last request beat of a transaction
	// and its first response beat.
	Latency int
	// Threads is the number of hardware threads served. Requests on each
	// thread are handled independently (round-robin), so cross-thread
	// responses interleave — OCP's legal out-of-order behaviour.
	Threads int
	// LazySync enables the ReadLinked/WriteConditional monitor.
	LazySync bool
}

// Memory is a transfer-level OCP memory slave with per-thread service
// engines over a shared backing store.
type Memory struct {
	port  *Port
	store *mem.Backing
	base  uint64
	cfg   MemoryConfig

	threads []*threadEngine
	rrNext  int

	monitor mem.Monitor[int] // keyed by thread

	free []*ocpTxn // served, reused (a write's with its data buffers)
	ring mem.Ring  // response beat data
}

type threadEngine struct {
	q   []*ocpTxn
	cur *ocpTxn
}

type ocpTxn struct {
	cmd   Cmd
	addr  uint64
	size  uint8
	beats int
	seq   BurstSeq
	data  []byte
	be    []byte
	th    int
	wait  int
	beat  int
}

// NewMemory creates an OCP memory slave.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64, cfg MemoryConfig) *Memory {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	m := &Memory{port: port, store: store, base: base, cfg: cfg, ring: mem.NewRing(port.Resp.Cap())}
	m.threads = make([]*threadEngine, cfg.Threads)
	for i := range m.threads {
		m.threads[i] = &threadEngine{}
	}
	clk.Register(m).Consumes(port.Req)
	return m
}

// collect is the request-phase engine: accumulate beats into
// transactions on the owning thread.
func (m *Memory) collect() {
	b, ok := m.port.Req.Pop()
	if !ok {
		return
	}
	if b.ThreadID < 0 || b.ThreadID >= len(m.threads) {
		panic(fmt.Sprintf("ocp: request on thread %d of %d", b.ThreadID, len(m.threads)))
	}
	te := m.threads[b.ThreadID]
	var txn *ocpTxn
	if n := len(te.q); n > 0 && te.q[n-1].beat < te.q[n-1].beats {
		txn = te.q[n-1] // burst in progress
	}
	if txn == nil {
		if n := len(m.free); n > 0 {
			txn, m.free = m.free[n-1], m.free[:n-1]
		} else {
			txn = new(ocpTxn)
		}
		n := 0
		if b.Cmd.IsWrite() {
			n = b.BurstLen * int(b.Size)
		}
		*txn = ocpTxn{
			cmd: b.Cmd, addr: b.Addr, size: b.Size, beats: b.BurstLen, seq: b.Seq,
			data: slices.Grow(txn.data[:0], n), be: slices.Grow(txn.be[:0], n),
			th: b.ThreadID, wait: m.cfg.Latency,
		}
		te.q = append(te.q, txn)
	}
	if b.Cmd.IsWrite() {
		txn.data = append(txn.data, b.Data...)
		txn.be = mem.AppendEnables(txn.be, b.ByteEn, len(b.Data))
	}
	txn.beat++
	if b.Last != (txn.beat == txn.beats) {
		panic(fmt.Sprintf("ocp: MReqLast mismatch on thread %d (beat %d/%d)", b.ThreadID, txn.beat, txn.beats))
	}
}

// Eval implements sim.Clocked.
func (m *Memory) Eval(cycle int64) {
	m.collect()

	// Response side: round-robin across threads, one response beat per
	// cycle. This interleaves responses of different threads — legal and
	// deliberate.
	if !m.port.Resp.CanPush(1) {
		return
	}
	n := len(m.threads)
	for i := 0; i < n; i++ {
		th := (m.rrNext + i) % n
		te := m.threads[th]
		if te.cur == nil {
			if len(te.q) == 0 || te.q[0].beat < te.q[0].beats {
				continue // nothing complete on this thread
			}
			te.cur = te.q[0]
			te.q = sim.DropFront(te.q, 1)
			te.cur.beat = 0
		}
		txn := te.cur
		if txn.wait > 0 {
			txn.wait--
			continue
		}
		if m.respond(txn) {
			m.free = append(m.free, txn)
			te.cur = nil
		}
		m.rrNext = (th + 1) % n
		return
	}
}

// respond emits one beat (or absorbs a posted write whole) and reports
// whether the transaction finished.
func (m *Memory) respond(txn *ocpTxn) bool {
	switch txn.cmd {
	case CmdWR:
		// Posted write: commit, no response.
		m.commitWrite(txn)
		return true
	case CmdWRNP:
		m.commitWrite(txn)
		m.port.Resp.Push(RespBeat{Resp: RespDVA, ThreadID: txn.th, Last: true})
		return true
	case CmdWRC:
		resp := RespFAIL
		lo := txn.addr
		hi := txn.addr + uint64(txn.size)
		if m.cfg.LazySync && m.monitor.Holds(txn.th, lo, hi) {
			m.commitWrite(txn)
			resp = RespDVA
		}
		m.port.Resp.Push(RespBeat{Resp: resp, ThreadID: txn.th, Last: true})
		return true
	case CmdRDL:
		if m.cfg.LazySync {
			m.monitor.Reserve(txn.th, txn.addr, txn.addr+uint64(txn.size))
		}
		m.port.Resp.Push(RespBeat{Resp: RespDVA, Data: m.read(txn.addr-m.base, txn.size), ThreadID: txn.th, Last: true})
		return true
	case CmdRD:
		addr := txn.seq.MemBurst(txn.beats).Addr(txn.addr, txn.size, txn.beat) - m.base
		last := txn.beat == txn.beats-1
		m.port.Resp.Push(RespBeat{Resp: RespDVA, Data: m.read(addr, txn.size), ThreadID: txn.th, Last: last})
		txn.beat++
		return last
	default:
		panic(fmt.Sprintf("ocp: memory cannot serve %v", txn.cmd))
	}
}

// read reads one beat into the next buffer of the read ring.
func (m *Memory) read(addr uint64, size uint8) []byte {
	data := m.ring.Next(int(size))
	m.store.ReadInto(addr, data)
	return data
}

func (m *Memory) commitWrite(txn *ocpTxn) {
	burst := txn.seq.MemBurst(txn.beats)
	m.store.WriteBurst(txn.data, txn.be, burst, txn.addr, m.base, txn.size)
	m.monitor.Wrote(burst.Span(txn.addr, txn.size, txn.beats)) // any committed write kills overlapping reservations
}

// Idle implements sim.Idler: no request beat on the socket and no
// transaction queued or in service on any thread.
func (m *Memory) Idle() bool {
	if !m.port.Req.Empty() {
		return false
	}
	for _, te := range m.threads {
		if te.cur != nil || len(te.q) > 0 {
			return false
		}
	}
	return true
}
