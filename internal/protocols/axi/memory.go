package axi

import (
	"fmt"
	"slices"

	"gonoc/internal/mem"
	"gonoc/internal/protocols"
	"gonoc/internal/sim"
)

// MemoryConfig parameterizes an AXI memory slave.
type MemoryConfig struct {
	// Latency is the cycles between accepting an address and the first
	// data/response beat.
	Latency int
	// Reorder makes the slave service queued read bursts LIFO instead of
	// FIFO, deliberately exercising AXI's out-of-order permission across
	// IDs (responses within an ID still keep order: same-ID bursts are
	// never reordered past each other).
	Reorder bool
	// Exclusive enables a slave-side exclusive monitor (keyed by ID, as
	// a standalone AXI slave sees it).
	Exclusive bool
}

// Memory is a transfer-level AXI memory slave over a shared backing
// store. One R beat per cycle, one W beat per cycle, bursts handled per
// the AXI address-progression rules.
type Memory struct {
	port  *Port
	store *mem.Backing
	base  uint64
	cfg   MemoryConfig

	rq        []memRead // accepted reads
	cur       memRead   // read burst currently streaming, while streaming
	streaming bool
	wait      int

	wq    []*memWrite // accepted writes awaiting data/latency
	wdata []WBeat
	bq    []BBeat // responses ready to send

	freeWrites []*memWrite // served, reused with their data buffers
	ring       mem.Ring    // R beat data

	excl mem.Monitor[int] // keyed by ID
}

type memRead struct {
	ar   ARBeat
	beat int
	wait int
}

type memWrite struct {
	aw    AWBeat
	beats int
	data  []byte
	strb  []byte
	wait  int
}

// NewMemory creates an AXI memory slave; addresses on the port are
// absolute and base is subtracted before indexing the backing store.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64, cfg MemoryConfig) *Memory {
	m := &Memory{port: port, store: store, base: base, cfg: cfg, ring: mem.NewRing(port.R.Cap())}
	clk.Register(m).Consumes(port.AR, port.AW, port.W)
	return m
}

// Eval implements sim.Clocked.
func (m *Memory) Eval(cycle int64) {
	// Accept one AR per cycle.
	if ar, ok := m.port.AR.Pop(); ok {
		m.rq = append(m.rq, memRead{ar: ar, wait: m.cfg.Latency})
	}
	// Accept one AW per cycle.
	if aw, ok := m.port.AW.Pop(); ok {
		var w *memWrite
		if n := len(m.freeWrites); n > 0 {
			w, m.freeWrites = m.freeWrites[n-1], m.freeWrites[:n-1]
		} else {
			w = new(memWrite)
		}
		n := aw.Beats() * int(aw.Size)
		*w = memWrite{aw: aw, beats: aw.Beats(), data: slices.Grow(w.data[:0], n), strb: slices.Grow(w.strb[:0], n), wait: m.cfg.Latency}
		m.wq = append(m.wq, w)
	}
	// Accept one W beat per cycle; write data follows AW order.
	if w, ok := m.port.W.Pop(); ok {
		m.wdata = append(m.wdata, w)
	}

	m.serveReads()
	m.serveWrites()

	m.bq = sim.PushOne(m.bq, m.port.B)
}

func (m *Memory) serveReads() {
	if !m.streaming && len(m.rq) > 0 {
		pick := 0
		if m.cfg.Reorder {
			pick = protocols.NewestPick(m.rq, func(r *memRead) int { return r.ar.ID })
		}
		m.cur, m.streaming = m.rq[pick], true
		m.rq = slices.Delete(m.rq, pick, pick+1)
	}
	if !m.streaming {
		return
	}
	if m.cur.wait > 0 {
		m.cur.wait--
		return
	}
	if !m.port.R.CanPush(1) {
		return
	}
	r := &m.cur
	ar := r.ar
	burst := ar.Burst.MemBurst(ar.Beats())
	data := m.ring.Next(int(ar.Size))
	m.store.ReadInto(burst.Addr(ar.Addr, ar.Size, r.beat)-m.base, data)
	resp := RespOKAY
	if ar.Lock && m.cfg.Exclusive {
		if r.beat == 0 {
			lo, hi := burst.Span(ar.Addr, ar.Size, ar.Beats())
			m.excl.Reserve(ar.ID, lo, hi)
		}
		resp = RespEXOKAY
	}
	last := r.beat == ar.Beats()-1
	m.port.R.Push(RBeat{ID: ar.ID, Data: data, Resp: resp, Last: last})
	r.beat++
	if last {
		m.streaming = false
	}
}

func (m *Memory) serveWrites() {
	if len(m.wq) == 0 {
		return
	}
	w := m.wq[0]
	// Collect this burst's beats from the in-order W stream.
	for len(m.wdata) > 0 && len(w.data) < w.beats*int(w.aw.Size) {
		beat := m.wdata[0]
		m.wdata = sim.DropFront(m.wdata, 1)
		if len(beat.Data) != int(w.aw.Size) {
			panic(fmt.Sprintf("axi: W beat of %dB for size-%d burst", len(beat.Data), w.aw.Size))
		}
		w.data = append(w.data, beat.Data...)
		w.strb = mem.AppendEnables(w.strb, beat.Strb, len(beat.Data))
		gotAll := len(w.data) == w.beats*int(w.aw.Size)
		if beat.Last != gotAll {
			panic(fmt.Sprintf("axi: WLAST mismatch: last=%v gotAll=%v (AW %+v)", beat.Last, gotAll, w.aw))
		}
	}
	if len(w.data) < w.beats*int(w.aw.Size) {
		return // waiting for data beats
	}
	if w.wait > 0 {
		w.wait--
		return
	}
	// Commit.
	aw := w.aw
	resp := RespOKAY
	burst := aw.Burst.MemBurst(w.beats)
	lo, hi := burst.Span(aw.Addr, aw.Size, w.beats)
	doWrite := true
	if aw.Lock && m.cfg.Exclusive {
		if m.excl.Holds(aw.ID, lo, hi) {
			resp = RespEXOKAY
		} else {
			doWrite = false // failed exclusive: OKAY, no write
		}
	}
	if doWrite {
		m.store.WriteBurst(w.data, w.strb, burst, aw.Addr, m.base, aw.Size)
		m.excl.Wrote(lo, hi)
	}
	m.bq = append(m.bq, BBeat{ID: aw.ID, Resp: resp})
	m.freeWrites = append(m.freeWrites, w)
	m.wq = sim.DropFront(m.wq, 1)
}

// Idle implements sim.Idler: no request on the socket and no burst
// accepted, in service or awaiting its response beat. Write data beats
// that arrived ahead of their AW wait for the AW pipe.
func (m *Memory) Idle() bool {
	return m.port.AR.Empty() && m.port.AW.Empty() && m.port.W.Empty() &&
		!m.streaming && len(m.rq) == 0 && len(m.wq) == 0 && len(m.bq) == 0
}
