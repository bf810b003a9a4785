package protocols

import (
	"fmt"
	"slices"

	"gonoc/internal/sim"
)

// InOrder is the master engine of a single-channel socket: one request
// pipe and one response pipe. PVCI, BVCI, WISHBONE and AVCI masters
// embed it and add only their socket's transaction methods, which build
// a request Q and hand it to Enqueue with its ID. Up to depth requests
// are outstanding at a time. Each response S completes the oldest
// outstanding request with the ID that result reads out of it, along
// with its (data, err): a fully ordered socket uses ID 0 throughout, so
// its responses complete in request order, and AVCI's answer in order
// within an ID.
type InOrder[Q, S any] struct {
	req    *sim.Pipe[Q]
	rsp    *sim.Pipe[S]
	depth  int
	result func(S) (id int, data []byte, err bool)
	q      []inOrderCall[Q] // queued, not yet on the socket
	pend   []inOrderCall[Q] // on the socket, oldest first

	issued, completed uint64

	wake sim.Waker
}

type inOrderCall[Q any] struct {
	req   Q
	id    int
	read  func([]byte, bool)
	wrote func(bool)
}

// Bind attaches the engine to its socket's pipes and registers it on
// clk. depth below 1 means 1.
func (m *InOrder[Q, S]) Bind(clk *sim.Clock, req *sim.Pipe[Q], rsp *sim.Pipe[S], depth int, result func(S) (int, []byte, bool)) {
	m.req, m.rsp, m.depth, m.result = req, rsp, max(depth, 1), result
	m.wake = clk.Register(m)
	m.wake.Consumes(rsp)
}

// Busy reports whether work remains.
func (m *InOrder[Q, S]) Busy() bool { return len(m.q) > 0 || len(m.pend) > 0 }

// Issued and Completed return cumulative counters.
func (m *InOrder[Q, S]) Issued() uint64    { return m.issued }
func (m *InOrder[Q, S]) Completed() uint64 { return m.completed }

// Enqueue queues req on ID id. Its response completes read (a read: the
// data is valid only during the call, because the socket's slave reuses
// its buffer for a later read) or wrote (a write, whose data must stay
// unchanged until then); either may be nil.
func (m *InOrder[Q, S]) Enqueue(id int, req Q, read func(data []byte, err bool), wrote func(err bool)) {
	m.q = append(m.q, inOrderCall[Q]{req: req, id: id, read: read, wrote: wrote})
	m.issued++
	m.wake.Wake()
}

// Eval implements sim.Clocked: put the next queued request on the
// socket if the pipeline has room, and complete the oldest outstanding
// request with the socket's response's ID.
func (m *InOrder[Q, S]) Eval(int64) {
	if len(m.q) > 0 && len(m.pend) < m.depth && m.req.CanPush(1) {
		m.req.Push(m.q[0].req)
		m.pend = append(m.pend, m.q[0])
		m.q = sim.DropFront(m.q, 1)
	}
	rsp, ok := m.rsp.Pop()
	if !ok {
		return
	}
	id, data, err := m.result(rsp)
	i := 0
	for i < len(m.pend) && m.pend[i].id != id {
		i++
	}
	if i == len(m.pend) {
		panic(fmt.Sprintf("protocols: response for ID %d with nothing outstanding", id))
	}
	c := m.pend[i]
	m.pend = slices.Delete(m.pend, i, i+1)
	m.completed++
	if c.read != nil {
		c.read(data, err)
	}
	if c.wrote != nil {
		c.wrote(err)
	}
}

// Idle implements sim.Idler: no response on the socket, and no request
// queued that the pipeline would let out.
func (m *InOrder[Q, S]) Idle() bool {
	return m.rsp.Empty() && (len(m.q) == 0 || len(m.pend) >= m.depth)
}
