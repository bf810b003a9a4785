package axi

import (
	"fmt"
	"slices"

	"gonoc/internal/mem"
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

	// Write bursts served, reused with their data buffers by later ones,
	// and the R data ring: an R beat's buffer is reused only after the R
	// pipe's depth of later beats, when its reader has popped it.
	freeWrites []*memWrite
	rbuf       [][]byte
	rnext      int

	excl map[int]exclSpan // ID -> reservation

	reads, writes uint64
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

type exclSpan struct{ lo, hi uint64 }

// NewMemory creates an AXI memory slave; addresses on the port are
// absolute and base is subtracted before indexing the backing store.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64, cfg MemoryConfig) *Memory {
	m := &Memory{port: port, store: store, base: base, cfg: cfg, excl: make(map[int]exclSpan),
		rbuf: make([][]byte, port.R.Cap()+1)}
	clk.Register(m).Consumes(port.AR, port.AW, port.W)
	return m
}

// beatAddr computes AXI address progression for beat i.
func beatAddr(burst Burst, addr uint64, size uint8, beats, i int) uint64 {
	s := uint64(size)
	switch burst {
	case BurstFixed:
		return addr
	case BurstWrap:
		window := uint64(beats) * s
		if window == 0 || window&(window-1) != 0 {
			return addr + uint64(i)*s
		}
		b := addr &^ (window - 1)
		return b + (addr+uint64(i)*s-b)%window
	default:
		return addr + uint64(i)*s
	}
}

func burstSpan(burst Burst, addr uint64, size uint8, beats int) (lo, hi uint64) {
	lo, hi = addr, addr
	for i := 0; i < beats; i++ {
		a := beatAddr(burst, addr, size, beats, i)
		if a < lo {
			lo = a
		}
		if a+uint64(size) > hi {
			hi = a + uint64(size)
		}
	}
	return
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

	// Emit one B per cycle.
	if len(m.bq) > 0 && m.port.B.CanPush(1) {
		m.port.B.Push(m.bq[0])
		m.bq = sim.DropFront(m.bq, 1)
	}
}

func (m *Memory) serveReads() {
	if !m.streaming && len(m.rq) > 0 {
		pick := 0
		if m.cfg.Reorder {
			// LIFO across bursts, but never past an older burst with the
			// same ID (per-ID order is an AXI guarantee).
			for i := len(m.rq) - 1; i >= 0; i-- {
				older := false
				for j := 0; j < i; j++ {
					if m.rq[j].ar.ID == m.rq[i].ar.ID {
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
		m.cur, m.streaming = m.rq[pick], true
		m.rq = append(m.rq[:pick], m.rq[pick+1:]...)
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
	addr := beatAddr(ar.Burst, ar.Addr, ar.Size, ar.Beats(), r.beat) - m.base
	data := slices.Grow(m.rbuf[m.rnext][:0], int(ar.Size))[:ar.Size]
	m.rbuf[m.rnext] = data
	m.rnext = (m.rnext + 1) % len(m.rbuf)
	m.store.ReadInto(addr, data)
	resp := RespOKAY
	if ar.Lock && m.cfg.Exclusive {
		if r.beat == 0 {
			lo, hi := burstSpan(ar.Burst, ar.Addr, ar.Size, ar.Beats())
			m.excl[ar.ID] = exclSpan{lo, hi}
		}
		resp = RespEXOKAY
	}
	last := r.beat == ar.Beats()-1
	m.port.R.Push(RBeat{ID: ar.ID, Data: data, Resp: resp, Last: last})
	r.beat++
	if last {
		m.streaming = false
		m.reads++
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
		if beat.Strb != nil {
			w.strb = append(w.strb, beat.Strb...)
		} else {
			for range beat.Data {
				w.strb = append(w.strb, 0xFF)
			}
		}
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
	lo, hi := burstSpan(aw.Burst, aw.Addr, aw.Size, w.beats)
	doWrite := true
	if aw.Lock && m.cfg.Exclusive {
		if sp, ok := m.excl[aw.ID]; ok && sp.lo <= lo && hi <= sp.hi {
			resp = RespEXOKAY
		} else {
			resp = RespOKAY // failed exclusive: OKAY, no write
			doWrite = false
		}
	}
	if doWrite {
		for i := 0; i < w.beats; i++ {
			addr := beatAddr(aw.Burst, aw.Addr, aw.Size, w.beats, i) - m.base
			s := int(aw.Size)
			m.store.Write(addr, w.data[i*s:(i+1)*s], w.strb[i*s:(i+1)*s])
		}
		// A committed write invalidates overlapping reservations.
		for id, sp := range m.excl {
			if sp.lo < hi && lo < sp.hi {
				delete(m.excl, id)
			}
		}
	}
	m.bq = append(m.bq, BBeat{ID: aw.ID, Resp: resp})
	m.freeWrites = append(m.freeWrites, w)
	m.wq = sim.DropFront(m.wq, 1)
	m.writes++
}

// Idle implements sim.Idler: no request on the socket and no burst
// accepted, in service or awaiting its response beat. Write data beats
// that arrived ahead of their AW wait for the AW pipe.
func (m *Memory) Idle() bool {
	return m.port.AR.Empty() && m.port.AW.Empty() && m.port.W.Empty() &&
		!m.streaming && len(m.rq) == 0 && len(m.wq) == 0 && len(m.bq) == 0
}

// Served returns cumulative read and write burst counts.
func (m *Memory) Served() (reads, writes uint64) { return m.reads, m.writes }
