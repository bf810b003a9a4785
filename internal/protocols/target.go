package protocols

import "gonoc/internal/sim"

// Target is the memory engine of a single-channel socket, the slave-side
// twin of InOrder: it pops one request, waits cost(req) cycles, and
// answers serve(req) once the response pipe has room, then takes the
// next. cost runs once per request, as it is popped, and serve once,
// as its response is pushed. The AHB, PVCI, BVCI and WISHBONE memories
// embed it and supply only their socket's cost and serve functions.
type Target[Q, S any] struct {
	req   *sim.Pipe[Q]
	rsp   *sim.Pipe[S]
	cost  func(Q) int
	serve func(Q) S

	cur  Q // the request in service, valid while busy
	busy bool
	wait int
}

// Bind attaches the engine to its socket's pipes and registers it on
// clk.
func (t *Target[Q, S]) Bind(clk *sim.Clock, req *sim.Pipe[Q], rsp *sim.Pipe[S], cost func(Q) int, serve func(Q) S) {
	t.req, t.rsp, t.cost, t.serve = req, rsp, cost, serve
	clk.Register(t).Consumes(req)
}

// Eval implements sim.Clocked.
func (t *Target[Q, S]) Eval(int64) {
	if !t.busy {
		req, ok := t.req.Pop()
		if !ok {
			return
		}
		t.cur, t.busy = req, true
		t.wait = t.cost(req)
	}
	if t.wait > 0 {
		t.wait--
		return
	}
	if !t.rsp.CanPush(1) {
		return
	}
	t.rsp.Push(t.serve(t.cur))
	var zero Q
	t.cur, t.busy = zero, false
}

// Idle implements sim.Idler: no request in service or on the socket.
func (t *Target[Q, S]) Idle() bool { return !t.busy && t.req.Empty() }

// NewestPick returns the index of the request a reordering target
// serves next from its queue q: the newest one with no older request
// of the same ID, so responses within an ID keep their order. id reads
// a request's ID.
func NewestPick[T any](q []T, id func(*T) int) int {
	for i := len(q) - 1; i > 0; i-- {
		older := false
		for j := 0; j < i && !older; j++ {
			older = id(&q[j]) == id(&q[i])
		}
		if !older {
			return i
		}
	}
	return 0
}
