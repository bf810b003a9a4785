// Package prop models a deliberately odd proprietary socket — the
// "various other proprietary protocols" the paper's VC-neutral claim must
// also cover. It is a descriptor-driven streaming interface:
//
//   - The master posts a Descriptor (stream read or stream write of N
//     bytes at an address).
//   - Write data flows as fixed 16-byte chunks; the slave acknowledges
//     with COALESCED acks (one Ack per 4 chunks, plus a final one), not
//     per-transfer responses.
//   - Read data streams back as chunks tagged with the stream ID.
//
// Nothing about this maps 1:1 onto AHB/AXI/OCP semantics, which is the
// point: its NIU still only needs tag state and packet bits.
package prop

import (
	"fmt"
	"slices"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

// ChunkBytes is the fixed payload granule of the socket.
const ChunkBytes = 16

// AckEvery is the slave's ack coalescing factor.
const AckEvery = 4

// Op is a descriptor operation.
type Op uint8

// Descriptor operations.
const (
	OpStreamWrite Op = iota
	OpStreamRead
)

// String renders an Op.
func (o Op) String() string {
	if o == OpStreamWrite {
		return "STREAM_WR"
	}
	return "STREAM_RD"
}

// Descriptor announces a stream.
type Descriptor struct {
	Op       Op
	Addr     uint64
	Bytes    int
	StreamID int
}

// Chunks returns the number of chunks the stream needs.
func (d Descriptor) Chunks() int { return (d.Bytes + ChunkBytes - 1) / ChunkBytes }

// Chunk is one data granule.
type Chunk struct {
	StreamID int
	Data     []byte // ChunkBytes, except possibly the last
	Last     bool
}

// Ack is a coalesced acknowledgement.
type Ack struct {
	StreamID int
	Chunks   int // chunks covered by this ack
	Done     bool
	OK       bool
}

// Port is one proprietary socket.
type Port struct {
	Desc *sim.Pipe[Descriptor]
	Wr   *sim.Pipe[Chunk] // master -> slave
	Rd   *sim.Pipe[Chunk] // slave -> master
	Ack  *sim.Pipe[Ack]   // slave -> master
}

// NewPort creates the socket pipes.
func NewPort(clk *sim.Clock, name string, depth int) *Port {
	return &Port{
		Desc: sim.NewPipe[Descriptor](clk, name+".Desc", depth),
		Wr:   sim.NewPipe[Chunk](clk, name+".Wr", depth),
		Rd:   sim.NewPipe[Chunk](clk, name+".Rd", depth),
		Ack:  sim.NewPipe[Ack](clk, name+".Ack", depth),
	}
}

// Master is the stream engine on the IP side.
type Master struct {
	port *Port

	descQ     []Descriptor
	wrQ       []Chunk
	reads     map[int]*readStream
	writes    map[int]writeStream
	freeReads []*readStream // finished streams, reused with their data buffers

	issued, completed uint64

	wake sim.Waker
}

type readStream struct {
	want int
	got  []byte
	cb   func([]byte)
}

type writeStream struct {
	chunks int
	acked  int
	cb     func(bool)
}

// NewMaster creates a master engine.
func NewMaster(clk *sim.Clock, port *Port) *Master {
	m := &Master{port: port, reads: make(map[int]*readStream), writes: make(map[int]writeStream)}
	m.wake = clk.Register(m)
	m.wake.Consumes(port.Rd, port.Ack)
	return m
}

// Busy reports whether streams are in flight.
func (m *Master) Busy() bool {
	return len(m.descQ) > 0 || len(m.wrQ) > 0 || len(m.reads) > 0 || len(m.writes) > 0
}

// Issued and Completed return cumulative counters.
func (m *Master) Issued() uint64    { return m.issued }
func (m *Master) Completed() uint64 { return m.completed }

// StreamWrite posts a write stream; cb fires when the final ack arrives.
// data must stay unchanged until then.
func (m *Master) StreamWrite(id int, addr uint64, data []byte, cb func(ok bool)) {
	if len(data) == 0 {
		panic("prop: empty stream write")
	}
	if _, dup := m.writes[id]; dup {
		panic(fmt.Sprintf("prop: stream ID %d already writing", id))
	}
	d := Descriptor{Op: OpStreamWrite, Addr: addr, Bytes: len(data), StreamID: id}
	m.descQ = append(m.descQ, d)
	n := d.Chunks()
	for i := 0; i < n; i++ {
		lo := i * ChunkBytes
		hi := lo + ChunkBytes
		if hi > len(data) {
			hi = len(data)
		}
		m.wrQ = append(m.wrQ, Chunk{StreamID: id, Data: data[lo:hi], Last: i == n-1})
	}
	m.writes[id] = writeStream{chunks: n, cb: cb}
	m.issued++
	m.wake.Wake()
}

// StreamRead posts a read stream; cb fires with the assembled bytes,
// which are valid only during the call: the master reuses its buffer
// for a later stream.
func (m *Master) StreamRead(id int, addr uint64, n int, cb func([]byte)) {
	if n <= 0 {
		panic("prop: empty stream read")
	}
	if _, dup := m.reads[id]; dup {
		panic(fmt.Sprintf("prop: stream ID %d already reading", id))
	}
	m.descQ = append(m.descQ, Descriptor{Op: OpStreamRead, Addr: addr, Bytes: n, StreamID: id})
	var rs *readStream
	if k := len(m.freeReads); k > 0 {
		rs, m.freeReads = m.freeReads[k-1], m.freeReads[:k-1]
	} else {
		rs = new(readStream)
	}
	*rs = readStream{want: n, got: slices.Grow(rs.got[:0], n), cb: cb}
	m.reads[id] = rs
	m.issued++
	m.wake.Wake()
}

// Eval implements sim.Clocked.
func (m *Master) Eval(cycle int64) {
	if len(m.descQ) > 0 && m.port.Desc.CanPush(1) {
		m.port.Desc.Push(m.descQ[0])
		m.descQ = sim.DropFront(m.descQ, 1)
	}
	if len(m.wrQ) > 0 && m.port.Wr.CanPush(1) {
		m.port.Wr.Push(m.wrQ[0])
		m.wrQ = sim.DropFront(m.wrQ, 1)
	}
	if c, ok := m.port.Rd.Pop(); ok {
		rs := m.reads[c.StreamID]
		if rs == nil {
			panic(fmt.Sprintf("prop: read chunk for unknown stream %d", c.StreamID))
		}
		rs.got = append(rs.got, c.Data...)
		if c.Last {
			if len(rs.got) != rs.want {
				panic(fmt.Sprintf("prop: stream %d returned %d bytes, want %d", c.StreamID, len(rs.got), rs.want))
			}
			delete(m.reads, c.StreamID)
			m.completed++
			got, cb := rs.got, rs.cb
			rs.cb = nil
			m.freeReads = append(m.freeReads, rs)
			if cb != nil {
				cb(got)
			}
		}
	}
	if a, ok := m.port.Ack.Pop(); ok {
		ws, ok := m.writes[a.StreamID]
		if !ok {
			panic(fmt.Sprintf("prop: ack for unknown stream %d", a.StreamID))
		}
		ws.acked += a.Chunks
		if !a.Done {
			m.writes[a.StreamID] = ws
		} else {
			if ws.acked != ws.chunks {
				panic(fmt.Sprintf("prop: stream %d acked %d/%d chunks", a.StreamID, ws.acked, ws.chunks))
			}
			delete(m.writes, a.StreamID)
			m.completed++
			if ws.cb != nil {
				ws.cb(a.OK)
			}
		}
	}
}

// Idle implements sim.Idler: no descriptor or chunk queued for the
// socket and no chunk or ack waiting on it.
func (m *Master) Idle() bool {
	return len(m.descQ) == 0 && len(m.wrQ) == 0 && m.port.Rd.Empty() && m.port.Ack.Empty()
}

// Memory is the slave engine: executes streams against a backing store.
type Memory struct {
	port  *Port
	store *mem.Backing
	base  uint64
	ring  mem.Ring // read chunk data

	wr      wrState
	rd      rdState
	writing bool // wr holds a stream
	reading bool // rd holds a stream
	descQ   []Descriptor
}

type wrState struct {
	d       Descriptor
	written int
	pending int  // chunks since last ack
	done    bool // last chunk absorbed; final ack still owed
}

type rdState struct {
	d    Descriptor
	sent int
}

// NewMemory creates the slave engine.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64) *Memory {
	m := &Memory{port: port, store: store, base: base, ring: mem.NewRing(port.Rd.Cap())}
	clk.Register(m).Consumes(port.Desc, port.Wr)
	return m
}

// Eval implements sim.Clocked.
func (m *Memory) Eval(cycle int64) {
	if d, ok := m.port.Desc.Pop(); ok {
		m.descQ = append(m.descQ, d)
	}
	// Activate streams: one write and one read may run concurrently.
	for i := 0; i < len(m.descQ); {
		d := m.descQ[i]
		switch {
		case d.Op == OpStreamWrite && !m.writing:
			m.wr, m.writing = wrState{d: d}, true
			m.descQ = slices.Delete(m.descQ, i, i+1)
		case d.Op == OpStreamRead && !m.reading:
			m.rd, m.reading = rdState{d: d}, true
			m.descQ = slices.Delete(m.descQ, i, i+1)
		default:
			i++
		}
	}
	// Write side: absorb one chunk per cycle; acks coalesce and retry
	// under ack-channel backpressure.
	if m.writing {
		st := &m.wr
		if !st.done {
			if c, ok := m.port.Wr.Pop(); ok {
				if c.StreamID != st.d.StreamID {
					panic(fmt.Sprintf("prop: chunk for stream %d during stream %d", c.StreamID, st.d.StreamID))
				}
				m.store.Write(st.d.Addr+uint64(st.written)-m.base, c.Data, nil)
				st.written += len(c.Data)
				st.pending++
				st.done = c.Last
			}
		}
		switch {
		case st.done:
			if m.port.Ack.CanPush(1) {
				m.port.Ack.Push(Ack{StreamID: st.d.StreamID, Chunks: st.pending, Done: true, OK: true})
				m.writing = false
			}
		case st.pending >= AckEvery:
			if m.port.Ack.CanPush(1) {
				m.port.Ack.Push(Ack{StreamID: st.d.StreamID, Chunks: st.pending, OK: true})
				st.pending = 0
			}
		}
	}
	// Read side: emit one chunk per cycle.
	if m.reading && m.port.Rd.CanPush(1) {
		st := &m.rd
		lo := st.sent
		hi := min(lo+ChunkBytes, st.d.Bytes)
		data := m.ring.Next(hi - lo)
		m.store.ReadInto(st.d.Addr+uint64(lo)-m.base, data)
		last := hi == st.d.Bytes
		m.port.Rd.Push(Chunk{StreamID: st.d.StreamID, Data: data, Last: last})
		st.sent = hi
		m.reading = !last
	}
}

// Idle implements sim.Idler: no stream in service, no descriptor queued
// and nothing on the socket.
func (m *Memory) Idle() bool {
	return !m.writing && !m.reading && len(m.descQ) == 0 && m.port.Desc.Empty() && m.port.Wr.Empty()
}
