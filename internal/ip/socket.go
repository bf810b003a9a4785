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

// AXI adapts an AXI master: INCR bursts on ID id%4.
func AXI(m *axi.Master) Socket { return newSocket(&axiSocket{m: m}, numIDs, 0, 4) }

type axiSocket struct {
	m    *axi.Master
	free []*axiCall
}

// axiCall is one transaction in flight on an AXI socket.
type axiCall struct {
	pending
	wrote func(axi.Resp)
	read  func(axi.ReadResult)
}

func (a *axiSocket) call(done Done) *axiCall {
	var c *axiCall
	if n := len(a.free); n > 0 {
		c, a.free = a.free[n-1], a.free[:n-1]
	} else {
		c = &axiCall{}
		c.release = func() { a.free = append(a.free, c) }
		c.wrote = func(r axi.Resp) { c.finish(nil, r != axi.RespOKAY) }
		c.read = func(r axi.ReadResult) { c.finish(r.Data, r.Resp != axi.RespOKAY) }
	}
	c.done = done
	return c
}

func (a *axiSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(id%numIDs, addr, size, axi.BurstIncr, data, a.call(done).wrote)
}

func (a *axiSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(id%numIDs, addr, size, beats, axi.BurstIncr, a.call(done).read)
}

// OCP adapts an OCP master: non-posted writes and incrementing reads on
// thread id%4.
func OCP(m *ocp.Master) Socket { return newSocket(&ocpSocket{m: m}, numIDs, 0, 4) }

type ocpSocket struct {
	m    *ocp.Master
	free []*ocpCall
}

// ocpCall is one transaction in flight on an OCP socket.
type ocpCall struct {
	pending
	wrote func(ocp.SResp)
	read  func(ocp.ReadResult)
}

func (o *ocpSocket) call(done Done) *ocpCall {
	var c *ocpCall
	if n := len(o.free); n > 0 {
		c, o.free = o.free[n-1], o.free[:n-1]
	} else {
		c = &ocpCall{}
		c.release = func() { o.free = append(o.free, c) }
		c.wrote = func(r ocp.SResp) { c.finish(nil, r != ocp.RespDVA) }
		c.read = func(r ocp.ReadResult) { c.finish(r.Data, r.Resp != ocp.RespDVA) }
	}
	c.done = done
	return c
}

func (o *ocpSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	o.m.WriteNonPosted(id%numIDs, addr, size, ocp.SeqIncr, data, o.call(done).wrote)
}

func (o *ocpSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	o.m.Read(id%numIDs, addr, size, beats, ocp.SeqIncr, o.call(done).read)
}

// AHB adapts an AHB master: in order, each burst encoded by
// ahb.BurstFor.
func AHB(m *ahb.Master) Socket { return newSocket(&ahbSocket{m: m}, 0, 0, 4) }

type ahbSocket struct {
	m    *ahb.Master
	free []*ahbCall
}

// ahbCall is one transaction in flight on an AHB socket.
type ahbCall struct {
	pending
	wrote func(ahb.Resp)
	read  func(ahb.ReadResult)
}

func (a *ahbSocket) call(done Done) *ahbCall {
	var c *ahbCall
	if n := len(a.free); n > 0 {
		c, a.free = a.free[n-1], a.free[:n-1]
	} else {
		c = &ahbCall{}
		c.release = func() { a.free = append(a.free, c) }
		c.wrote = func(r ahb.Resp) { c.finish(nil, r != ahb.RespOkay) }
		c.read = func(r ahb.ReadResult) { c.finish(r.Data, r.Resp != ahb.RespOkay) }
	}
	c.done = done
	return c
}

func (a *ahbSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(addr, size, ahb.BurstFor(false, len(data)/int(size)), data, a.call(done).wrote)
}

func (a *ahbSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(addr, size, ahb.BurstFor(false, beats), beats, a.call(done).read)
}

// flagWrites adapts the write completions of the VCI and WISHBONE
// masters, which report only an error flag. Their reads complete with
// (data, err) already, so the adapters pass done straight through.
type flagWrites struct{ free []*flagWrite }

// flagWrite is one write in flight on a VCI or WISHBONE socket.
type flagWrite struct {
	pending
	wrote func(err bool)
}

func (fw *flagWrites) call(done Done) func(err bool) {
	var c *flagWrite
	if n := len(fw.free); n > 0 {
		c, fw.free = fw.free[n-1], fw.free[:n-1]
	} else {
		c = &flagWrite{}
		c.release = func() { fw.free = append(fw.free, c) }
		c.wrote = func(err bool) { c.finish(nil, err) }
	}
	c.done = done
	return c.wrote
}

// PVCI adapts a PVCI master: single-word, in order.
func PVCI(m *vci.PMaster) Socket { return newSocket(&pvciSocket{m: m}, 0, 1, 4) }

type pvciSocket struct {
	m *vci.PMaster
	flagWrites
}

func (p *pvciSocket) Write(_ int, addr uint64, _ uint8, data []byte, done Done) {
	p.m.Write(addr, data, p.call(done))
}

func (p *pvciSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	p.m.Read(addr, int(size)*beats, done)
}

// BVCI adapts a BVCI master: contiguous bursts, in order.
func BVCI(m *vci.BMaster) Socket { return newSocket(&bvciSocket{m: m}, 0, 0, 4) }

type bvciSocket struct {
	m *vci.BMaster
	flagWrites
}

func (b *bvciSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	b.m.Write(addr, size, data, b.call(done))
}

func (b *bvciSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	b.m.Read(addr, size, beats, false, done)
}

// AVCI adapts an AVCI master: bursts on transaction ID id%4.
func AVCI(m *vci.AMaster) Socket { return newSocket(&avciSocket{m: m}, numIDs, 0, 4) }

type avciSocket struct {
	m *vci.AMaster
	flagWrites
}

func (a *avciSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(id%numIDs, addr, size, data, a.call(done))
}

func (a *avciSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(id%numIDs, addr, size, beats, done)
}

// Prop adapts the proprietary streaming master: byte-granular streams,
// writes on stream 2·id and reads on 2·id+1, so a write and its read
// back never share a stream.
func Prop(m *prop.Master) Socket { return newSocket(&propSocket{m: m}, 0, 0, 1) }

type propSocket struct {
	m    *prop.Master
	free []*propCall
}

// propCall is one stream in flight on the proprietary socket.
type propCall struct {
	pending
	wrote func(ok bool)
	read  func(data []byte)
}

func (p *propSocket) call(done Done) *propCall {
	var c *propCall
	if n := len(p.free); n > 0 {
		c, p.free = p.free[n-1], p.free[:n-1]
	} else {
		c = &propCall{}
		c.release = func() { p.free = append(p.free, c) }
		c.wrote = func(ok bool) { c.finish(nil, !ok) }
		c.read = func(data []byte) { c.finish(data, false) }
	}
	c.done = done
	return c
}

func (p *propSocket) Write(id int, addr uint64, _ uint8, data []byte, done Done) {
	p.m.StreamWrite(2*id, addr, data, p.call(done).wrote)
}

func (p *propSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	p.m.StreamRead(2*id+1, addr, int(size)*beats, p.call(done).read)
}

// WB adapts a WISHBONE master: single accesses as classic cycles,
// bursts as linear incrementing registered-feedback cycles.
func WB(m *wishbone.Master) Socket { return newSocket(&wbSocket{m: m}, 0, 0, 4) }

type wbSocket struct {
	m *wishbone.Master
	flagWrites
}

func wbCTI(beats int) wishbone.CTI {
	if beats == 1 {
		return wishbone.Classic
	}
	return wishbone.Incrementing
}

func (w *wbSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	w.m.Write(addr, size, data, wbCTI(len(data)/int(size)), wishbone.Linear, w.call(done))
}

func (w *wbSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	w.m.Read(addr, size, beats, wbCTI(beats), wishbone.Linear, done)
}
