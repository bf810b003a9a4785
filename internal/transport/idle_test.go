package transport

import (
	"fmt"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// TestIdleRoutersNotEvaluated: a 64-node mesh carries one packet across
// it, corner to corner. On every cycle the fabric tick evaluates
// exactly the switches that, at the start of the cycle, hold one of the
// packet's flits in an input lane or an output for it; the other
// switches are idle and skipped. Each lane's commit list membership is
// checked too: after the edge no lane is left listed.
func TestIdleRoutersNotEvaluated(t *testing.T) {
	nodes := make([]noctypes.NodeID, 64)
	for i := range nodes {
		nodes[i] = noctypes.NodeID(i)
	}
	clk := sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0)
	net := Build(clk, NetConfig{}, Shape{Topology: Mesh, W: 8, H: 8}, nodes)
	p := net.NewPacket(40) // 16 B header + 40 B payload: 7 flits
	p.Kind, p.Src, p.Dst = KindReq, 0, 63
	if !net.Endpoint(0).TrySend(p) {
		t.Fatal("TrySend refused on an idle mesh")
	}
	busy := func(r *Router) bool {
		for o := range r.outHold {
			if r.outHold[o] != noLane {
				return true
			}
		}
		for i := range r.lanes {
			if r.lanes[i].clen > 0 {
				return true
			}
		}
		return false
	}
	evals := make([]uint64, len(net.routers))
	most := 0
	for c := 0; c < 200 && net.Endpoint(63).Received() == 0; c++ {
		var want []int
		for i, r := range net.routers {
			if busy(r) {
				want = append(want, i)
			}
			evals[i] = r.evals
		}
		clk.RunCycles(1)
		var got []int
		for i, r := range net.routers {
			if r.evals != evals[i] {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cycle %d: evaluated switches %v, want those holding the packet %v", clk.Cycle(), got, want)
		}
		most = max(most, len(got))
		for _, q := range net.qs {
			if q.listed {
				t.Fatalf("cycle %d: lane %s still on the commit list after the edge", clk.Cycle(), q.name)
			}
		}
	}
	if net.Endpoint(63).Received() != 1 {
		t.Fatal("the packet was not delivered in 200 cycles")
	}
	if most < 2 {
		t.Fatalf("at most %d switch evaluated in one cycle: the packet never spanned two hops", most)
	}
}
