package ip

import (
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
)

// Done completes one transaction: data holds a read's bytes (nil for a
// write) and err reports a protocol-level error response.
type Done func(data []byte, err bool)

// Initiator is the one transaction vocabulary the IP side speaks: a
// write of data, or a read of beats beats of size bytes, at addr. id
// selects the transaction's ID, thread or stream; each adapter maps it
// into its socket's own space, and in-order sockets ignore it.
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
	data := make([]byte, beats*w)
	for i := range data {
		data[i] = byte(addr>>2) + byte(i)
	}
	s.Write(k, addr, s.width, data, done)
}

// AXI adapts an AXI master: INCR bursts on ID id%4.
func AXI(m *axi.Master) Socket { return Socket{Initiator: axiSocket{m}, ids: numIDs, width: 4} }

type axiSocket struct{ m *axi.Master }

func (a axiSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(id%numIDs, addr, size, axi.BurstIncr, data, func(r axi.Resp) { done(nil, r != axi.RespOKAY) })
}

func (a axiSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(id%numIDs, addr, size, beats, axi.BurstIncr, func(r axi.ReadResult) { done(r.Data, r.Resp != axi.RespOKAY) })
}

// OCP adapts an OCP master: non-posted writes and incrementing reads on
// thread id%4.
func OCP(m *ocp.Master) Socket { return Socket{Initiator: ocpSocket{m}, ids: numIDs, width: 4} }

type ocpSocket struct{ m *ocp.Master }

func (o ocpSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	o.m.WriteNonPosted(id%numIDs, addr, size, ocp.SeqIncr, data, func(r ocp.SResp) { done(nil, r != ocp.RespDVA) })
}

func (o ocpSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	o.m.Read(id%numIDs, addr, size, beats, ocp.SeqIncr, func(r ocp.ReadResult) { done(r.Data, r.Resp != ocp.RespDVA) })
}

// AHB adapts an AHB master: in order, each burst encoded by
// ahb.BurstFor.
func AHB(m *ahb.Master) Socket { return Socket{Initiator: ahbSocket{m}, width: 4} }

type ahbSocket struct{ m *ahb.Master }

func (a ahbSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(addr, size, ahb.BurstFor(false, len(data)/int(size)), data, func(r ahb.Resp) { done(nil, r != ahb.RespOkay) })
}

func (a ahbSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(addr, size, ahb.BurstFor(false, beats), beats, func(r ahb.ReadResult) { done(r.Data, r.Resp != ahb.RespOkay) })
}

// PVCI adapts a PVCI master: single-word, in order.
func PVCI(m *vci.PMaster) Socket { return Socket{Initiator: pvciSocket{m}, maxBeats: 1, width: 4} }

type pvciSocket struct{ m *vci.PMaster }

func (p pvciSocket) Write(_ int, addr uint64, _ uint8, data []byte, done Done) {
	p.m.Write(addr, data, func(err bool) { done(nil, err) })
}

func (p pvciSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	p.m.Read(addr, int(size)*beats, done)
}

// BVCI adapts a BVCI master: contiguous bursts, in order.
func BVCI(m *vci.BMaster) Socket { return Socket{Initiator: bvciSocket{m}, width: 4} }

type bvciSocket struct{ m *vci.BMaster }

func (b bvciSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	b.m.Write(addr, size, data, func(err bool) { done(nil, err) })
}

func (b bvciSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	b.m.Read(addr, size, beats, false, done)
}

// AVCI adapts an AVCI master: bursts on transaction ID id%4.
func AVCI(m *vci.AMaster) Socket { return Socket{Initiator: avciSocket{m}, ids: numIDs, width: 4} }

type avciSocket struct{ m *vci.AMaster }

func (a avciSocket) Write(id int, addr uint64, size uint8, data []byte, done Done) {
	a.m.Write(id%numIDs, addr, size, data, func(err bool) { done(nil, err) })
}

func (a avciSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	a.m.Read(id%numIDs, addr, size, beats, done)
}

// Prop adapts the proprietary streaming master: byte-granular streams,
// writes on stream 2·id and reads on 2·id+1, so a write and its read
// back never share a stream.
func Prop(m *prop.Master) Socket { return Socket{Initiator: propSocket{m}, width: 1} }

type propSocket struct{ m *prop.Master }

func (p propSocket) Write(id int, addr uint64, _ uint8, data []byte, done Done) {
	p.m.StreamWrite(2*id, addr, data, func(ok bool) { done(nil, !ok) })
}

func (p propSocket) Read(id int, addr uint64, size uint8, beats int, done Done) {
	p.m.StreamRead(2*id+1, addr, int(size)*beats, func(d []byte) { done(d, false) })
}

// WB adapts a WISHBONE master: single accesses as classic cycles,
// bursts as linear incrementing registered-feedback cycles.
func WB(m *wishbone.Master) Socket { return Socket{Initiator: wbSocket{m}, width: 4} }

type wbSocket struct{ m *wishbone.Master }

func wbCTI(beats int) wishbone.CTI {
	if beats == 1 {
		return wishbone.Classic
	}
	return wishbone.Incrementing
}

func (w wbSocket) Write(_ int, addr uint64, size uint8, data []byte, done Done) {
	w.m.Write(addr, size, data, wbCTI(len(data)/int(size)), wishbone.Linear, func(err bool) { done(nil, err) })
}

func (w wbSocket) Read(_ int, addr uint64, size uint8, beats int, done Done) {
	w.m.Read(addr, size, beats, wbCTI(beats), wishbone.Linear, done)
}
