package niu

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// propBurstBytes is the largest transaction-layer burst the proprietary
// NIU cuts streams into.
const propBurstBytes = 64

// propReadID offsets a read stream's ordering handle from the write
// streams' (a write stream's handle is its stream ID).
const propReadID = 1000

// PropMaster is the master-side NIU for the proprietary streaming socket.
// It is the paper's §2 recipe exercised end-to-end: the stream/ack
// semantics that exist in no standard socket are absorbed entirely into
// NIU state (stream tables, ack coalescing counters) and ordinary
// read/write packets — zero transport-layer changes, zero engine
// changes: even this socket is just another MasterAdapter.
type PropMaster struct {
	*MasterEngine
}

type propMasterAdapter struct {
	far  FarSide
	port *prop.Port

	// The open streams, in the order they opened: write issue order and
	// read chunk emission order. A stream is found by ID by scanning
	// these few entries.
	wrStreams []*propWrState
	rdStreams []*propRdState
	ackQ      []prop.Ack
	req       core.Request // issue scratch: Issue encodes it before returning

	// Stream states of finished streams, reused by later ones (a write
	// stream's keeps its buffer), and the read streams' data.
	wrFree []*propWrState
	rdFree []*propRdState
	rdBufs readBufs
}

type propWrState struct {
	d       prop.Descriptor
	buf     []byte // bytes received from the socket, not yet packetized
	sent    int    // bytes issued to the fabric
	ackedUp int    // bytes completed by the fabric
	ackPend int    // chunks acknowledged-but-not-yet-coalesced
	gotLast bool
	failed  bool
}

type propRdState struct {
	d       prop.Descriptor
	issued  int // bytes requested from the fabric
	got     []byte
	emitted int // bytes pushed back to the socket
}

// NewPropMaster creates the NIU on clk.
func NewPropMaster(clk *sim.Clock, net *transport.Network, amap *core.AddressMap, port *prop.Port, cfg MasterConfig) *PropMaster {
	e := NewMasterEngine(net, amap, cfg, core.IDOrdered)
	e.Bind(clk, NewPropMasterAdapter(e, port), port.Desc, port.Wr)
	return &PropMaster{e}
}

// NewPropMasterAdapter returns the master adapter of a proprietary
// streaming socket, issuing into far.
func NewPropMasterAdapter(far FarSide, port *prop.Port) MasterAdapter {
	return &propMasterAdapter{far: far, port: port, rdBufs: newReadBufs(port.Rd.Cap())}
}

// Idle implements sim.Idler: nothing on the socket, no ack to send, no
// write bytes buffered and no read stream with a burst left to issue or
// data left to emit. A stream waiting only for fabric responses sleeps.
func (a *propMasterAdapter) Idle() bool {
	if !a.port.Desc.Empty() || !a.port.Wr.Empty() || len(a.ackQ) > 0 {
		return false
	}
	for _, st := range a.wrStreams {
		if len(st.buf) > 0 {
			return false
		}
	}
	for _, st := range a.rdStreams {
		if st.issued < st.d.Bytes || len(st.got) > st.emitted {
			return false
		}
	}
	return true
}

// StreamSocket implements MasterAdapter: the proprietary socket is fed
// at the end of the pump instead (chunk/ack emission follows issue).
func (a *propMasterAdapter) StreamSocket() {}

// PumpRequests implements MasterAdapter: absorb socket activity, issue
// at most one write burst and one read burst, then feed the socket.
func (a *propMasterAdapter) PumpRequests(cycle int64) {
	a.acceptSocket()
	a.issueWrites(cycle)
	a.issueReads(cycle)
	a.emitChunks()
	a.emitAcks()
}

func (a *propMasterAdapter) acceptSocket() {
	if d, ok := a.port.Desc.Pop(); ok {
		switch d.Op {
		case prop.OpStreamWrite:
			if _, dup := a.wrStream(d.StreamID); dup != nil {
				panic(fmt.Sprintf("niu: prop stream %d already writing", d.StreamID))
			}
			var st *propWrState
			if n := len(a.wrFree); n > 0 {
				st, a.wrFree = a.wrFree[n-1], a.wrFree[:n-1]
			} else {
				st = new(propWrState)
			}
			*st = propWrState{d: d, buf: st.buf[:0]}
			a.wrStreams = append(a.wrStreams, st)
		case prop.OpStreamRead:
			if _, dup := a.rdStream(d.StreamID); dup != nil {
				panic(fmt.Sprintf("niu: prop stream %d already reading", d.StreamID))
			}
			var st *propRdState
			if n := len(a.rdFree); n > 0 {
				st, a.rdFree = a.rdFree[n-1], a.rdFree[:n-1]
			} else {
				st = new(propRdState)
			}
			*st = propRdState{d: d, got: a.rdBufs.hold(nil, d.Bytes)[:0]}
			a.rdStreams = append(a.rdStreams, st)
		}
	}
	if c, ok := a.port.Wr.Pop(); ok {
		_, st := a.wrStream(c.StreamID)
		if st == nil {
			panic(fmt.Sprintf("niu: prop chunk for unknown stream %d", c.StreamID))
		}
		st.buf = append(st.buf, c.Data...)
		st.gotLast = st.gotLast || c.Last
	}
}

// wrStream returns the index and state of open write stream id, or
// -1 and nil.
func (a *propMasterAdapter) wrStream(id int) (int, *propWrState) {
	for i, st := range a.wrStreams {
		if st.d.StreamID == id {
			return i, st
		}
	}
	return -1, nil
}

// rdStream returns the index and state of open read stream id, or
// -1 and nil.
func (a *propMasterAdapter) rdStream(id int) (int, *propRdState) {
	for i, st := range a.rdStreams {
		if st.d.StreamID == id {
			return i, st
		}
	}
	return -1, nil
}

// issueWrites converts buffered stream bytes into write bursts.
func (a *propMasterAdapter) issueWrites(cycle int64) {
	for _, st := range a.wrStreams {
		if len(st.buf) == 0 {
			continue
		}
		if len(st.buf) < propBurstBytes && !st.gotLast {
			continue // wait for a full burst or the end of the stream
		}
		sz := len(st.buf)
		if sz > propBurstBytes {
			sz = propBurstBytes
		}
		a.req = core.Request{
			Cmd: core.CmdWrite, Addr: st.d.Addr + uint64(st.sent), Size: 1,
			Len: uint16(sz), Burst: core.BurstIncr,
			Data: st.buf[:sz],
		}
		if a.far.Issue(&a.req, st.d.StreamID, nil, cycle) == IssueOK {
			st.buf = sim.DropFront(st.buf, sz)
			st.sent += sz
		}
		return // at most one issue per cycle
	}
}

// issueReads converts read descriptors into read bursts.
func (a *propMasterAdapter) issueReads(cycle int64) {
	for _, st := range a.rdStreams {
		if st.issued >= st.d.Bytes {
			continue
		}
		sz := st.d.Bytes - st.issued
		if sz > propBurstBytes {
			sz = propBurstBytes
		}
		a.req = core.Request{
			Cmd: core.CmdRead, Addr: st.d.Addr + uint64(st.issued), Size: 1,
			Len: uint16(sz), Burst: core.BurstIncr,
		}
		if a.far.Issue(&a.req, propReadID+st.d.StreamID, nil, cycle) == IssueOK {
			st.issued += sz
		}
		return
	}
}

// DeliverResponse implements MasterAdapter. The entry's ProtoID names
// the stream; its burst shape gives the bytes the response covers.
func (a *propMasterAdapter) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	stream, n := entry.ProtoID, int(entry.Len)*int(entry.Size)
	if entry.Cmd.IsWrite() {
		i, st := a.wrStream(stream)
		if st == nil {
			return
		}
		st.ackedUp += n
		st.ackPend += (n + prop.ChunkBytes - 1) / prop.ChunkBytes
		st.failed = st.failed || !rsp.Status.OK()
		done := st.gotLast && len(st.buf) == 0 && st.ackedUp == st.sent
		// Ack coalescing: the NIU state machine reproduces the socket's
		// every-AckEvery-chunks contract.
		for st.ackPend >= prop.AckEvery {
			a.ackQ = append(a.ackQ, prop.Ack{StreamID: stream, Chunks: prop.AckEvery, OK: !st.failed})
			st.ackPend -= prop.AckEvery
		}
		if done {
			a.ackQ = append(a.ackQ, prop.Ack{StreamID: stream, Chunks: st.ackPend, Done: true, OK: !st.failed})
			a.wrStreams = append(a.wrStreams[:i], a.wrStreams[i+1:]...)
			a.wrFree = append(a.wrFree, st)
		}
		return
	}
	_, st := a.rdStream(stream - propReadID)
	if st == nil {
		return
	}
	st.got = append(st.got, rsp.Data...) // copies: rsp.Data dies with this call
}

// emitChunks streams read data back onto the socket, one chunk per cycle.
func (a *propMasterAdapter) emitChunks() {
	if !a.port.Rd.CanPush(1) {
		return
	}
	for i, st := range a.rdStreams {
		avail := len(st.got) - st.emitted
		if avail <= 0 {
			continue
		}
		isTail := st.emitted+avail == st.d.Bytes
		if avail < prop.ChunkBytes && !isTail {
			continue // wait for a full chunk unless it is the stream tail
		}
		sz := avail
		if sz > prop.ChunkBytes {
			sz = prop.ChunkBytes
		}
		last := st.emitted+sz == st.d.Bytes
		a.port.Rd.Push(prop.Chunk{StreamID: st.d.StreamID, Data: st.got[st.emitted : st.emitted+sz], Last: last})
		st.emitted += sz
		if last {
			a.rdBufs.pushed(st.got)
			a.rdStreams = append(a.rdStreams[:i], a.rdStreams[i+1:]...)
			a.rdFree = append(a.rdFree, st)
		}
		return
	}
}

func (a *propMasterAdapter) emitAcks() { a.ackQ = sim.PushOne(a.ackQ, a.port.Ack) }
