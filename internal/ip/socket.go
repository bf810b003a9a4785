package ip

import (
	"slices"

	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
)

// Done completes one transaction: data holds a read's bytes (nil for a
// write) and err reports a protocol-level error response. data is valid
// only during the call: the masters, memories and NIUs behind a socket
// reuse their buffers for later reads, so a completion that keeps the
// bytes must copy them.
type Done func(data []byte, err bool)

// Initiator is the one transaction vocabulary the IP side speaks: a
// write of data, or a read of beats beats of size bytes, at addr. id
// selects the transaction's ID, thread or stream; each adapter maps it
// into its socket's own space, and in-order sockets ignore it. A write's
// data must stay unchanged until its done runs; a read's data is valid
// only during its done (see Done).
type Initiator interface {
	Write(id int, addr uint64, size uint8, data []byte, done Done)
	Read(id int, addr uint64, size uint8, beats int, done Done)
}

// Socket is an Initiator plus the shape of the socket behind it.
type Socket struct {
	Initiator
	ids      int   // IDs or threads it interleaves; 0 = in order
	maxBeats int   // longest burst; 0 = no limit
	width    uint8 // bytes per beat; 1 = byte-granular
	iss      *issuer
}

// newSocket builds the Socket of an adapter.
func newSocket(i Initiator, ids, maxBeats int, width uint8) Socket {
	return Socket{Initiator: i, ids: ids, maxBeats: maxBeats, width: width, iss: new(issuer)}
}

// pending is the part every transaction context on the IP side shares.
// A context is drawn from its owner's free list, its completions are
// bound once, when it is made, and finish returns it to the free list
// (release, also bound once) before the caller's done runs, which may
// issue again and draw the same context.
type pending struct {
	done    Done
	release func()
}

func (p *pending) finish(data []byte, err bool) {
	done := p.done
	p.done = nil
	p.release()
	done(data, err)
}

// issuer keeps a Socket's Issue writes: a write's payload lives in its
// context until the write completes.
type issuer struct{ free []*issueWrite }

type issueWrite struct {
	pending
	data  []byte
	wrote Done
}

func (is *issuer) write(done Done) *issueWrite {
	var c *issueWrite
	if n := len(is.free); n > 0 {
		c, is.free = is.free[n-1], is.free[:n-1]
	} else {
		c = &issueWrite{}
		c.release = func() { is.free = append(is.free, c) }
		c.wrote = c.finish
	}
	c.done = done
	return c
}

// numIDs is the ID (or thread) count of the interleaving sockets.
const numIDs = 4

// Issue performs transaction k: a write or read of n bytes at addr,
// rounded up to whole beats and clamped to the socket's longest burst.
// k is the ID, so an interleaving socket rotates through its IDs. A
// write carries an address-derived payload: traffic does not verify
// data (the generators' scoreboards do).
func (s Socket) Issue(k int, write bool, addr uint64, n int, done Done) {
	w := int(s.width)
	beats := max((n+w-1)/w, 1)
	if s.maxBeats > 0 {
		beats = min(beats, s.maxBeats)
	}
	if !write {
		s.Read(k, addr, s.width, beats, done)
		return
	}
	c := s.iss.write(done)
	c.data = slices.Grow(c.data[:0], beats*w)[:beats*w]
	for i := range c.data {
		c.data[i] = byte(addr>>2) + byte(i)
	}
	s.Write(k, addr, s.width, c.data, c.wrote)
}

// call is one transaction in flight on a socket whose master takes
// completions of type W for a write and R for a read. Both are bound
// once, when the call is made, from its pending.
type call[W, R any] struct {
	pending
	wrote W
	read  R
}

// calls is a socket's free list of calls, and how it binds a new
// call's completions onto (data, err).
type calls[W, R any] struct {
	free []*call[W, R]
	bind func(p *pending) (wrote W, read R)
}

func (cs *calls[W, R]) call(done Done) *call[W, R] {
	var c *call[W, R]
	if n := len(cs.free); n > 0 {
		c, cs.free = cs.free[n-1], cs.free[:n-1]
	} else {
		c = &call[W, R]{}
		c.release = func() { cs.free = append(cs.free, c) }
		c.wrote, c.read = cs.bind(&c.pending)
	}
	c.done = done
	return c
}

// flagCalls binds the write completion of the VCI and WISHBONE
// masters, which report only an error flag. Their reads complete with
// (data, err) already, so those sockets pass done straight through and
// bind no read.
func flagCalls(p *pending) (func(bool), Done) {
	return func(err bool) { p.finish(nil, err) }, nil
}

// AXI adapts an AXI master: INCR bursts on ID id%4.
func AXI(m *axi.Master) Socket {
	return newSocket(&axiSocket{m: m, calls: calls[func(axi.Resp), func(axi.ReadResult)]{
		bind: func(p *pending) (func(axi.Resp), func(axi.ReadResult)) {
			return func(r axi.Resp) { p.finish(nil, r != axi.RespOKAY) },
				func(r axi.ReadResult) { p.finish(r.Data, r.Resp != axi.RespOKAY) }
		},
	}}, numIDs, 0, 4)
}

type axiSocket struct {
	m *axi.Master
	calls[func(axi.Resp), func(axi.ReadResult)]
}

func (a *axiSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(id%numIDs, addr, size, axi.BurstIncr, data, a.call(done).wrote)
}

func (a *axiSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(id%numIDs, addr, size, beats, axi.BurstIncr, a.call(done).read)
}

// OCP adapts an OCP master: non-posted writes and incrementing reads on
// thread id%4.
func OCP(m *ocp.Master) Socket {
	return newSocket(&ocpSocket{m: m, calls: calls[func(ocp.SResp), func(ocp.ReadResult)]{
		bind: func(p *pending) (func(ocp.SResp), func(ocp.ReadResult)) {
			return func(r ocp.SResp) { p.finish(nil, r != ocp.RespDVA) },
				func(r ocp.ReadResult) { p.finish(r.Data, r.Resp != ocp.RespDVA) }
		},
	}}, numIDs, 0, 4)
}

type ocpSocket struct {
	m *ocp.Master
	calls[func(ocp.SResp), func(ocp.ReadResult)]
}

func (o *ocpSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	o.m.WriteNonPosted(id%numIDs, addr, size, ocp.SeqIncr, data, nil, o.call(done).wrote)
}

func (o *ocpSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	o.m.Read(id%numIDs, addr, size, beats, ocp.SeqIncr, o.call(done).read)
}

// AHB adapts an AHB master: in order, each burst encoded by
// ahb.BurstFor.
func AHB(m *ahb.Master) Socket {
	return newSocket(&ahbSocket{m: m, calls: calls[func(ahb.Resp), func(ahb.ReadResult)]{
		bind: func(p *pending) (func(ahb.Resp), func(ahb.ReadResult)) {
			return func(r ahb.Resp) { p.finish(nil, r != ahb.RespOkay) },
				func(r ahb.ReadResult) { p.finish(r.Data, r.Resp != ahb.RespOkay) }
		},
	}}, 0, 0, 4)
}

type ahbSocket struct {
	m *ahb.Master
	calls[func(ahb.Resp), func(ahb.ReadResult)]
}

func (a *ahbSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(addr, size, ahb.BurstFor(false, len(data)/int(size)), data, a.call(done).wrote)
}

func (a *ahbSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(addr, size, ahb.BurstFor(false, beats), beats, a.call(done).read)
}

// writeCalls is the call pool of a VCI or WISHBONE socket, whose reads
// draw none.
type writeCalls = calls[func(bool), Done]

// PVCI adapts a PVCI master: single-word, in order.
func PVCI(m *vci.PMaster) Socket {
	return newSocket(&pvciSocket{m: m, writeCalls: writeCalls{bind: flagCalls}}, 0, 1, 4)
}

type pvciSocket struct {
	m *vci.PMaster
	writeCalls
}

func (p *pvciSocket) Write(_ int, addr uint64, _ uint8, data []byte, done Done) {
	p.m.Write(addr, data, p.call(done).wrote)
}

func (p *pvciSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	p.m.Read(addr, int(size)*beats, done)
}

// BVCI adapts a BVCI master: contiguous bursts, in order.
func BVCI(m *vci.BMaster) Socket {
	return newSocket(&bvciSocket{m: m, writeCalls: writeCalls{bind: flagCalls}}, 0, 0, 4)
}

type bvciSocket struct {
	m *vci.BMaster
	writeCalls
}

func (b *bvciSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	b.m.Write(addr, size, data, nil, false, b.call(done).wrote)
}

func (b *bvciSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	b.m.Read(addr, size, beats, false, done)
}

// AVCI adapts an AVCI master: bursts on transaction ID id%4.
func AVCI(m *vci.AMaster) Socket {
	return newSocket(&avciSocket{m: m, writeCalls: writeCalls{bind: flagCalls}}, numIDs, 0, 4)
}

type avciSocket struct {
	m *vci.AMaster
	writeCalls
}

func (a *avciSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(id%numIDs, addr, size, data, nil, false, a.call(done).wrote)
}

func (a *avciSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(id%numIDs, addr, size, beats, false, done)
}

// Prop adapts the proprietary streaming master: byte-granular streams,
// writes on stream 2·id and reads on 2·id+1, so a write and its read
// back never share a stream.
func Prop(m *prop.Master) Socket {
	return newSocket(&propSocket{m: m, calls: calls[func(bool), func([]byte)]{
		bind: func(p *pending) (func(bool), func([]byte)) {
			return func(ok bool) { p.finish(nil, !ok) },
				func(data []byte) { p.finish(data, false) }
		},
	}}, 0, 0, 1)
}

type propSocket struct {
	m *prop.Master
	calls[func(bool), func([]byte)]
}

func (p *propSocket) Write(id int, addr uint64, _ uint8, data []byte, done Done) {
	p.m.StreamWrite(2*id, addr, data, p.call(done).wrote)
}

func (p *propSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	p.m.StreamRead(2*id+1, addr, int(size)*beats, p.call(done).read)
}

// WB adapts a WISHBONE master: single accesses as classic cycles,
// bursts as linear incrementing registered-feedback cycles.
func WB(m *wishbone.Master) Socket {
	return newSocket(&wbSocket{m: m, writeCalls: writeCalls{bind: flagCalls}}, 0, 0, 4)
}

type wbSocket struct {
	m *wishbone.Master
	writeCalls
}

func wbCTI(beats int) wishbone.CTI {
	if beats == 1 {
		return wishbone.Classic
	}
	return wishbone.Incrementing
}

func (w *wbSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	w.m.Write(addr, size, data, wbCTI(len(data)/int(size)), wishbone.Linear, w.call(done).wrote)
}

func (w *wbSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	w.m.Read(addr, size, beats, wbCTI(beats), wishbone.Linear, done)
}
