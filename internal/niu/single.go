package niu

import (
	"gonoc/internal/core"
	"gonoc/internal/sim"
)

// singleAdapter is the master adapter of every single-channel socket —
// one request pipe and one in-order response pipe: AHB, PVCI, BVCI,
// AVCI and WISHBONE. A socket supplies only how its request converts
// (conv) and how its response is spelled (spell); the adapter owns the
// pump, the response queue and its read buffers.
type singleAdapter[Q, S any] struct {
	far FarSide
	req *sim.Pipe[Q]
	rsp *sim.Pipe[S]
	// conv converts a socket request into c, overwriting all of c.Req,
	// and reports false for a request the fabric cannot express (c.Req
	// still gives its command and shape, for the refusal).
	conv  func(r Q, c *candidate) bool
	spell func(protoID int, err bool, data []byte) S
	rspQ  []singleRsp[S]
	bufs  readBufs // rspQ's read data
	cand  candidate
}

// candidate is the socket's head request converted for issue. The
// adapter converts every request into the same one, so converting a
// request that then stalls allocates nothing.
type candidate struct {
	Req     core.Request
	ProtoID int
}

type singleRsp[S any] struct {
	rsp  S
	data []byte // rsp's read data, held in bufs
}

// single returns the adapter of a single-channel socket, issuing into
// far.
func single[Q, S any](far FarSide, req *sim.Pipe[Q], rsp *sim.Pipe[S], conv func(Q, *candidate) bool, spell func(int, bool, []byte) S) *singleAdapter[Q, S] {
	return &singleAdapter[Q, S]{far: far, req: req, rsp: rsp, conv: conv, spell: spell, bufs: newReadBufs(rsp.Cap())}
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

// PumpRequests implements MasterAdapter: convert the socket's head
// request and try to issue it, then consume it, answer it locally, or
// leave it on the socket for the next cycle. A request the fabric
// cannot express is refused at once, instead of executing at the wrong
// addresses.
func (a *singleAdapter[Q, S]) PumpRequests(cycle int64) {
	r, ok := a.req.Peek()
	if !ok {
		return
	}
	c := &a.cand
	if !a.conv(r, c) {
		a.req.Pop()
		a.refuse(c)
		return
	}
	switch a.far.Issue(&c.Req, c.ProtoID, nil, cycle) {
	case IssueOK:
		a.req.Pop()
	case IssueDecodeErr, IssueUnsupported:
		a.req.Pop()
		a.refuse(c)
	case IssueStall:
		// Leave the request on the socket; retry next cycle.
	}
}

// refuse answers a request that cannot enter the fabric (one it cannot
// express, an address decode error or a disabled service): every
// single-channel socket signals it as an error response, a read's
// zero-filled to its full length.
func (a *singleAdapter[Q, S]) refuse(c *candidate) {
	var data []byte
	if !c.Req.Cmd.IsWrite() {
		data = a.bufs.hold(nil, c.Req.Bytes())
	}
	a.queue(c.ProtoID, true, data)
}
