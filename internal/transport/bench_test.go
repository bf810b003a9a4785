package transport

import (
	"fmt"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// BenchmarkFabricTransfer measures the full per-packet transport path —
// TrySend, flit injection, crossbar traversal, reassembly, Recv — on a
// two-node crossbar moving 32-byte payloads. The sender reuses one
// packet (TrySend copies everything during the call) and the receiver
// recycles delivered packets, so steady state is the fabric's zero-alloc
// contract: CI guards allocs/op here at zero.
func BenchmarkFabricTransfer(b *testing.B) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "bench", sim.Nanosecond, 0)
	nodes := []noctypes.NodeID{1, 2}
	net := NewCrossbar(clk, NetConfig{BufDepth: 16}, nodes)
	src, dst := net.Endpoint(1), net.Endpoint(2)
	payload := make([]byte, 32)
	p := &Packet{Header: Header{Kind: KindReq, Dst: 2, Src: 1}, Payload: payload}
	var rxBuf []*Packet
	b.ReportAllocs()
	b.ResetTimer()
	sent, got := 0, 0
	for got < b.N {
		if sent < b.N && src.CanSend() {
			if src.TrySend(p) {
				sent++
			}
		}
		clk.RunCycles(1)
		rxBuf = dst.RecvAll(rxBuf[:0])
		got += len(rxBuf)
		for _, rx := range rxBuf {
			net.Recycle(rx)
		}
	}
}

// BenchmarkMeshSteadyState measures whole-fabric throughput: an 8x8
// wormhole mesh under sustained uniform-random load, reporting flits/sec
// over a measured window (after a warmup that fills the pipelines and
// pools). Unlike BenchmarkFabricTransfer's single-flow microbench, this
// exercises 64 switches' arbitration, the batched per-edge commit over
// every lane in the fabric, and cross-flow contention — the macro number
// the ROADMAP's "fast as the hardware allows" target is judged by.
func BenchmarkMeshSteadyState(b *testing.B) {
	const W, H = 8, 8
	k := sim.NewKernel()
	clk := sim.NewClock(k, "bench", sim.Nanosecond, 0)
	spec := MeshSpec{W: W, H: H, Nodes: map[noctypes.NodeID]Coord{}}
	nodes := make([]noctypes.NodeID, 0, W*H)
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			id := noctypes.NodeID(y*W + x)
			spec.Nodes[id] = Coord{X: x, Y: y}
			nodes = append(nodes, id)
		}
	}
	net := NewMesh(clk, NetConfig{BufDepth: 8}, spec)
	eps := make([]*Endpoint, len(nodes))
	pkts := make([]*Packet, len(nodes))
	for i, id := range nodes {
		eps[i] = net.Endpoint(id)
		pkts[i] = &Packet{Header: Header{Kind: KindReq, Src: id}, Payload: make([]byte, 16)}
	}
	// xorshift keeps destination choice allocation-free and deterministic.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var rxBuf []*Packet
	tick := func() {
		for i, ep := range eps {
			if ep.CanSend() {
				d := nodes[next()%uint64(len(nodes))]
				if d == ep.ID() {
					continue
				}
				pkts[i].Dst = d
				ep.TrySend(pkts[i])
			}
		}
		clk.RunCycles(1)
		for _, ep := range eps {
			rxBuf = ep.RecvAll(rxBuf[:0])
			for _, rx := range rxBuf {
				net.Recycle(rx)
			}
		}
	}
	for c := 0; c < 200; c++ { // warm pipelines, pools, and scratch
		tick()
	}
	startFlits := fabricFlits(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	moved := fabricFlits(net) - startFlits
	b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "flits/sec")
	b.ReportMetric(float64(moved)/float64(b.N), "flits/cycle")
	if moved == 0 {
		b.Fatal("mesh moved no flits in measured window")
	}
}

// BenchmarkCrossbarSparse measures 100 clock cycles (one op) of a
// 13-endpoint crossbar (the Fig 1 SoC's switch width) carrying one 64 B
// packet at a time, sources and destinations rotating. Nearly every
// port idles, so ns/op is dominated by the switch's per-cycle
// allocation cost at 13 ports — the port-count dependence
// BenchmarkFabricTransfer's 2-node crossbar cannot show. It reports
// delivered pkts/op and fails on zero.
func BenchmarkCrossbarSparse(b *testing.B) {
	const endpoints = 13
	k := sim.NewKernel()
	clk := sim.NewClock(k, "bench", sim.Nanosecond, 0)
	nodes := make([]noctypes.NodeID, endpoints)
	for i := range nodes {
		nodes[i] = noctypes.NodeID(i + 1)
	}
	net := NewCrossbar(clk, NetConfig{BufDepth: 8}, nodes)
	p := &Packet{Header: Header{Kind: KindReq}, Payload: make([]byte, 64)}
	var rxBuf []*Packet
	src, inFlight, delivered := 0, false, 0
	tick := func() {
		if !inFlight {
			p.Src = nodes[src]
			p.Dst = nodes[(src+5)%endpoints]
			inFlight = net.Endpoint(p.Src).TrySend(p)
		}
		clk.RunCycles(1)
		rxBuf = net.Endpoint(p.Dst).RecvAll(rxBuf[:0])
		for _, rx := range rxBuf {
			net.Recycle(rx)
			delivered++
			inFlight = false
			src = (src + 1) % endpoints
		}
	}
	for c := 0; c < 200; c++ { // warm pools and scratch
		tick()
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 100; c++ {
			tick()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/float64(b.N), "pkts/op")
	if delivered == 0 {
		b.Fatal("crossbar delivered no packets in measured window")
	}
}

func fabricFlits(net *Network) uint64 {
	var total uint64
	for _, r := range net.Routers() {
		total += r.Stats().FlitsMoved
	}
	return total
}

// TestFabricTransferZeroAlloc pins the zero-alloc steady-state contract
// as a plain test (the CI bench guard checks the same property from the
// benchmark output; this fails fast locally without -bench).
func TestFabricTransferZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "alloc", sim.Nanosecond, 0)
	nodes := []noctypes.NodeID{1, 2}
	net := NewCrossbar(clk, NetConfig{BufDepth: 16}, nodes)
	src, dst := net.Endpoint(1), net.Endpoint(2)
	p := &Packet{Header: Header{Kind: KindReq, Dst: 2, Src: 1}, Payload: make([]byte, 32)}
	var rxBuf []*Packet
	xfer := func() {
		got := 0
		for got == 0 {
			if src.CanSend() {
				src.TrySend(p)
			}
			clk.RunCycles(1)
			rxBuf = dst.RecvAll(rxBuf[:0])
			got += len(rxBuf)
			for _, rx := range rxBuf {
				net.Recycle(rx)
			}
		}
	}
	for i := 0; i < 50; i++ { // warm the pools and map internals
		xfer()
	}
	avg := testing.AllocsPerRun(200, xfer)
	if avg != 0 {
		t.Fatalf("steady-state transfer allocates %.2f allocs/op, want 0", avg)
	}
}

// TestRecycleResetsPacket checks the pool contract: a recycled packet
// comes back zeroed (no stale header or payload visible) with its
// payload capacity retained.
func TestRecycleResetsPacket(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "recycle", sim.Nanosecond, 0)
	net := NewCrossbar(clk, NetConfig{}, []noctypes.NodeID{1, 2})
	p := &Packet{Header: Header{Kind: KindRsp, Dst: 1, Src: 2, Tag: 77}, Payload: []byte{1, 2, 3}, ID: 9}
	net.Recycle(p)
	q := net.pool.get()
	if q != p {
		t.Fatal("pool did not return the recycled descriptor")
	}
	if q.Header != (Header{}) || q.ID != 0 || len(q.Payload) != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
	if cap(q.Payload) == 0 {
		t.Fatal("recycled packet lost payload capacity")
	}
	net.Recycle(q)
	net.Recycle(nil) // must be a no-op
	if fmt.Sprint(len(net.pool.free)) != "1" {
		t.Fatalf("pool size %d after nil recycle, want 1", len(net.pool.free))
	}
}
