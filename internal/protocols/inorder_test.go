package protocols

import (
	"slices"
	"strings"
	"testing"

	"gonoc/internal/sim"
)

// TestInOrderMatchesResponsesByID: a response completes the oldest
// outstanding request with its ID, so completions leave request order
// across IDs and keep it within one; a response for an ID with nothing
// outstanding panics.
func TestInOrderMatchesResponsesByID(t *testing.T) {
	clk := sim.NewClock(sim.NewKernel(), "clk", sim.Nanosecond, 0)
	req := sim.NewPipe[int](clk, "req", 4) // a request is its ID
	rsp := sim.NewPipe[int](clk, "rsp", 4) // and so is a response
	var m InOrder[int, int]
	m.Bind(clk, req, rsp, 4, func(id int) (int, []byte, bool) { return id, nil, false })

	var done []string
	for _, c := range []struct {
		name string
		id   int
	}{{"a0", 1}, {"b0", 2}, {"a1", 1}} {
		m.Enqueue(c.id, c.id, func([]byte, bool) { done = append(done, c.name) }, nil)
	}
	for n, cycle := 0, 0; n < 3; cycle++ {
		if cycle == 100 {
			t.Fatalf("%d of 3 requests reached the socket", n)
		}
		clk.RunCycles(1)
		if _, ok := req.Pop(); ok {
			n++
		}
	}
	for _, id := range []int{2, 1, 1} {
		rsp.Push(id)
	}
	clk.RunCycles(8)
	if want := []string{"b0", "a0", "a1"}; !slices.Equal(done, want) {
		t.Fatalf("completions %v, want %v", done, want)
	}
	if m.Busy() || m.Completed() != 3 {
		t.Fatalf("busy %v with %d of 3 completed", m.Busy(), m.Completed())
	}

	rsp.Push(1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "ID 1 with nothing outstanding") {
			t.Fatalf("a response for ID 1 with nothing outstanding panicked with %q", msg)
		}
	}()
	clk.RunCycles(8)
}
