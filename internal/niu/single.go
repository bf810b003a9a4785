package niu

import (
	"gonoc/internal/core"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// singleAdapter is the master adapter of every single-channel socket —
// one request pipe and one in-order response pipe: AHB, PVCI, BVCI,
// AVCI and WISHBONE. A socket supplies only how its request converts
// (conv) and how its response is spelled (spell); the adapter owns the
// response queue and its read buffers, and issues through PumpOne.
type singleAdapter[Q, S any] struct {
	eng *MasterEngine
	req *sim.Pipe[Q]
	rsp *sim.Pipe[S]
	// conv converts a socket request into c, overwriting all of c.Req,
	// and reports false for a request the fabric cannot express (c.Req
	// still gives its command and shape, for the refusal).
	conv  func(r Q, c *Candidate) bool
	spell func(protoID int, err bool, data []byte) S
	rspQ  []singleRsp[S]
	bufs  readBufs // rspQ's read data
}

type singleRsp[S any] struct {
	rsp  S
	data []byte // rsp's read data, held in bufs
}

// newSingle creates the engine of a single-channel master NIU on clk,
// behind the shared adapter, and returns it.
func newSingle[Q, S any](clk *sim.Clock, net *transport.Network, amap *core.AddressMap, cfg MasterConfig, natural core.OrderingModel,
	req *sim.Pipe[Q], rsp *sim.Pipe[S], conv func(Q, *Candidate) bool, spell func(int, bool, []byte) S) *MasterEngine {
	e := NewMasterEngine(net, amap, cfg, natural)
	e.Bind(clk, &singleAdapter[Q, S]{eng: e, req: req, rsp: rsp, conv: conv, spell: spell, bufs: newReadBufs(rsp.Cap())})
	e.wake.Consumes(req)
	return e
}

// Idle implements sim.Idler.
func (a *singleAdapter[Q, S]) Idle() bool { return a.req.Empty() && len(a.rspQ) == 0 }

// DeliverResponse implements MasterAdapter: responses come back in
// request order, and a read's data is held until the socket takes it.
func (a *singleAdapter[Q, S]) DeliverResponse(rsp *core.Response, entry *core.Entry) {
	var data []byte
	if !entry.Cmd.IsWrite() {
		data = a.bufs.hold(rsp.Data, 0)
	}
	a.queue(entry.ProtoID, !rsp.Status.OK(), data)
}

func (a *singleAdapter[Q, S]) queue(protoID int, err bool, data []byte) {
	a.rspQ = append(a.rspQ, singleRsp[S]{rsp: a.spell(protoID, err, data), data: data})
}

// StreamSocket implements MasterAdapter.
func (a *singleAdapter[Q, S]) StreamSocket() {
	if len(a.rspQ) > 0 && a.rsp.Push(a.rspQ[0].rsp) {
		a.bufs.pushed(a.rspQ[0].data)
		a.rspQ = sim.DropFront(a.rspQ, 1)
	}
}

// PumpRequests implements MasterAdapter.
func (a *singleAdapter[Q, S]) PumpRequests(cycle int64) { a.eng.PumpOne(cycle, a) }

// Peek implements SocketHead. A request the fabric cannot express is
// refused at once, instead of executing at the wrong addresses.
func (a *singleAdapter[Q, S]) Peek(c *Candidate) bool {
	r, ok := a.req.Peek()
	if !ok {
		return false
	}
	if a.conv(r, c) {
		return true
	}
	a.req.Pop()
	a.Refuse(c)
	return false
}

// Pop implements SocketHead.
func (a *singleAdapter[Q, S]) Pop() { a.req.Pop() }

// Refuse implements SocketHead: every single-channel socket signals a
// decode error or a disabled service as an error response, a read's
// zero-filled to its full length.
func (a *singleAdapter[Q, S]) Refuse(c *Candidate) {
	var data []byte
	if !c.Req.Cmd.IsWrite() {
		data = a.bufs.hold(nil, c.Req.Bytes())
	}
	a.queue(c.ProtoID, true, data)
}
