package transport

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// testNet bundles a kernel, clock and network for transport tests.
type testNet struct {
	k   *sim.Kernel
	clk *sim.Clock
	net *Network
}

func newXbar(cfg NetConfig, nodes ...noctypes.NodeID) *testNet {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	return &testNet{k: k, clk: clk, net: NewCrossbar(clk, cfg, nodes)}
}

func (tn *testNet) runUntilDrained(t *testing.T, maxCycles int64) {
	t.Helper()
	start := tn.clk.Cycle()
	for tn.clk.Cycle()-start < maxCycles {
		if tn.net.Drained() {
			return
		}
		tn.clk.RunCycles(1)
	}
	t.Fatalf("network not drained after %d cycles (in flight: %d)", maxCycles, tn.net.InFlight())
}

func pkt(src, dst noctypes.NodeID, payload string) *Packet {
	return &Packet{
		Header:  Header{Kind: KindReq, Dst: dst, Src: src, Priority: noctypes.PrioDefault},
		Payload: []byte(payload),
	}
}

func TestCrossbarDelivery(t *testing.T) {
	tn := newXbar(NetConfig{}, 1, 2)
	a, b := tn.net.Endpoint(1), tn.net.Endpoint(2)
	if !a.TrySend(pkt(1, 2, "hello fabric")) {
		t.Fatal("TrySend refused on idle network")
	}
	tn.runUntilDrained(t, 100)
	got, ok := b.Recv()
	if !ok {
		t.Fatal("nothing received")
	}
	if string(got.Payload) != "hello fabric" || got.Src != 1 {
		t.Fatalf("received %v payload %q", got, got.Payload)
	}
	if _, ok := a.Recv(); ok {
		t.Fatal("sender received its own packet")
	}
}

func TestCrossbarBidirectional(t *testing.T) {
	tn := newXbar(NetConfig{}, 1, 2)
	tn.net.Endpoint(1).TrySend(pkt(1, 2, "ping"))
	tn.net.Endpoint(2).TrySend(pkt(2, 1, "pong"))
	tn.runUntilDrained(t, 200)
	if p, ok := tn.net.Endpoint(2).Recv(); !ok || string(p.Payload) != "ping" {
		t.Fatal("ping lost")
	}
	if p, ok := tn.net.Endpoint(1).Recv(); !ok || string(p.Payload) != "pong" {
		t.Fatal("pong lost")
	}
}

func TestBackpressureMaxPending(t *testing.T) {
	tn := newXbar(NetConfig{MaxPendingPkts: 2}, 1, 2)
	a := tn.net.Endpoint(1)
	if !a.TrySend(pkt(1, 2, "one")) || !a.TrySend(pkt(1, 2, "two")) {
		t.Fatal("first sends refused")
	}
	if a.TrySend(pkt(1, 2, "three")) {
		t.Fatal("send beyond MaxPendingPkts accepted")
	}
	if a.CanSend() {
		t.Fatal("CanSend true at limit")
	}
	tn.runUntilDrained(t, 200)
	if !a.CanSend() {
		t.Fatal("CanSend false after drain")
	}
}

func TestPerSrcTagOrderPreserved(t *testing.T) {
	tn := newXbar(NetConfig{}, 1, 2)
	a, b := tn.net.Endpoint(1), tn.net.Endpoint(2)
	const n = 20
	sent := 0
	var got []string
	for cycle := 0; cycle < 2000 && len(got) < n; cycle++ {
		if sent < n {
			p := pkt(1, 2, fmt.Sprintf("m%02d", sent))
			p.Tag = 5
			if a.TrySend(p) {
				sent++
			}
		}
		tn.clk.RunCycles(1)
		for {
			p, ok := b.Recv()
			if !ok {
				break
			}
			got = append(got, string(p.Payload))
		}
	}
	if len(got) != n {
		t.Fatalf("received %d/%d packets", len(got), n)
	}
	for i, s := range got {
		if want := fmt.Sprintf("m%02d", i); s != want {
			t.Fatalf("order violated at %d: got %q want %q (all: %v)", i, s, want, got)
		}
	}
}

// runAllPairs floods one packet per ordered (src,dst) pair into the
// fabric and asserts every one arrives intact at its destination — the
// shared delivery (and, for ring/torus, deadlock-freedom) check for
// multi-switch topologies.
func runAllPairs(t *testing.T, clk *sim.Clock, net *Network, ids []noctypes.NodeID, maxCycles int) {
	t.Helper()
	type key struct{ src, dst noctypes.NodeID }
	want := map[key]bool{}
	var sends []*Packet
	for _, s := range ids {
		for _, d := range ids {
			if s == d {
				continue
			}
			p := pkt(s, d, fmt.Sprintf("%d->%d", s, d))
			sends = append(sends, p)
			want[key{s, d}] = true
		}
	}
	recvd := map[key]bool{}
	i := 0
	for cycle := 0; cycle < maxCycles && len(recvd) < len(want); cycle++ {
		for i < len(sends) {
			p := sends[i]
			if !net.Endpoint(p.Src).TrySend(p) {
				break
			}
			i++
		}
		clk.RunCycles(1)
		for _, id := range ids {
			for {
				p, ok := net.Endpoint(id).Recv()
				if !ok {
					break
				}
				if p.Dst != id {
					t.Fatalf("misrouted: %v arrived at %v", p, id)
				}
				if want := fmt.Sprintf("%d->%d", p.Src, p.Dst); string(p.Payload) != want {
					t.Fatalf("payload corrupted: %q want %q", p.Payload, want)
				}
				recvd[key{p.Src, p.Dst}] = true
			}
		}
	}
	if len(recvd) != len(want) {
		t.Fatalf("delivered %d/%d flows", len(recvd), len(want))
	}
}

func TestMeshAllPairs(t *testing.T) {
	for _, mode := range []SwitchingMode{Wormhole, StoreAndForward} {
		t.Run(mode.String(), func(t *testing.T) {
			k := sim.NewKernel()
			clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
			nodes := map[noctypes.NodeID]Coord{}
			var ids []noctypes.NodeID
			for y := 0; y < 3; y++ {
				for x := 0; x < 3; x++ {
					id := noctypes.NodeID(y*3 + x)
					nodes[id] = Coord{x, y}
					ids = append(ids, id)
				}
			}
			cfg := NetConfig{Mode: mode, BufDepth: 16}
			net := NewMesh(clk, cfg, MeshSpec{W: 3, H: 3, Nodes: nodes})
			runAllPairs(t, clk, net, ids, 5000)
		})
	}
}

func TestRingAllPairs(t *testing.T) {
	for _, mode := range []SwitchingMode{Wormhole, StoreAndForward} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, n := range []int{2, 5, 8} {
				k := sim.NewKernel()
				clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
				var ids []noctypes.NodeID
				for i := 0; i < n; i++ {
					ids = append(ids, noctypes.NodeID(i+1))
				}
				net := NewRing(clk, NetConfig{Mode: mode, BufDepth: 16}, ids)
				runAllPairs(t, clk, net, ids, 8000)
			}
		})
	}
}

func TestTorusAllPairs(t *testing.T) {
	for _, mode := range []SwitchingMode{Wormhole, StoreAndForward} {
		t.Run(mode.String(), func(t *testing.T) {
			// On a 2-wide dimension the East and West outputs both reach
			// the one neighbour, over two distinct links.
			for _, dim := range []struct{ w, h int }{{4, 4}, {3, 2}, {1, 4}, {2, 2}, {2, 3}} {
				k := sim.NewKernel()
				clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
				nodes := map[noctypes.NodeID]Coord{}
				var ids []noctypes.NodeID
				for y := 0; y < dim.h; y++ {
					for x := 0; x < dim.w; x++ {
						id := noctypes.NodeID(y*dim.w + x + 1)
						nodes[id] = Coord{x, y}
						ids = append(ids, id)
					}
				}
				net := NewTorus(clk, NetConfig{Mode: mode, BufDepth: 16}, MeshSpec{W: dim.w, H: dim.h, Nodes: nodes})
				checkTorusLinks(t, net, dim.w, dim.h)
				runAllPairs(t, clk, net, ids, 8000)
			}
		})
	}
}

// checkTorusLinks pins a torus's wiring to the per-router rule: in a
// dimension of size >= 2 each output feeds the opposite input port of
// the neighbour that way round (wrapping), and a dimension of size 1
// stays unwired.
func checkTorusLinks(t *testing.T, net *Network, w, h int) {
	t.Helper()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := net.routers[y*w+x]
			for _, l := range []struct{ out, in, dx, dy, size int }{
				{portEast, portWest, 1, 0, w}, {portWest, portEast, -1, 0, w},
				{portSouth, portNorth, 0, 1, h}, {portNorth, portSouth, 0, -1, h},
			} {
				want, next := []*flitQ{nil, nil}, -1
				if l.size > 1 {
					nb := net.routers[(y+l.dy+h)%h*w+(x+l.dx+w)%w]
					want, next = nb.lanes[l.in], nb.index
				}
				if !slices.Equal(r.outs[l.out], want) || net.adj[r.index][l.out] != next {
					t.Fatalf("%dx%d torus: %s output %d feeds %v (adj %d), want %v (adj %d)",
						w, h, r.name, l.out, r.outs[l.out], net.adj[r.index][l.out], want, next)
				}
			}
		}
	}
}

// TestRingShorterPathsThanMeshRow pins the wraparound advantage: on an
// 8-ring the worst-case route is 4 links + ejection, where a 8x1 mesh
// line would need 7.
func TestRingWrapShortensPaths(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	var ids []noctypes.NodeID
	for i := 0; i < 8; i++ {
		ids = append(ids, noctypes.NodeID(i+1))
	}
	net := NewRing(clk, NetConfig{}, ids)
	for s := range ids {
		for d := range ids {
			if s == d {
				continue
			}
			fwd := (d - s + 8) % 8
			hops := fwd
			if hops > 8-fwd {
				hops = 8 - fwd
			}
			if got := len(net.Path(ids[s], ids[d])); got != hops+1 {
				t.Fatalf("path %v->%v: %d links, want %d", ids[s], ids[d], got, hops+1)
			}
		}
	}
	// Half-way-around ties split by source parity — even sources go
	// clockwise, odd counter-clockwise — so neither unidirectional ring
	// carries all the longest flows.
	if p := net.Path(ids[0], ids[4]); p[0].Port != ringCW {
		t.Fatalf("even-source tie did not go clockwise: %v", p)
	}
	if p := net.Path(ids[1], ids[5]); p[0].Port != ringCCW {
		t.Fatalf("odd-source tie did not go counter-clockwise: %v", p)
	}
}

// TestTorusDatelineVCSwitch verifies the deadlock-avoidance mechanism
// itself: a packet that crosses a wrap link arrives on the escape VC,
// one that stays inside the dimension arrives on VC0.
func TestTorusDatelineVCSwitch(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	nodes := map[noctypes.NodeID]Coord{}
	var ids []noctypes.NodeID
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			id := noctypes.NodeID(y*4 + x + 1)
			nodes[id] = Coord{x, y}
			ids = append(ids, id)
		}
	}
	net := NewTorus(clk, NetConfig{}, MeshSpec{W: 4, H: 4, Nodes: nodes})

	lastVC := func(src, dst noctypes.NodeID) uint8 {
		dstEp := net.Endpoint(dst)
		net.Endpoint(src).TrySend(pkt(src, dst, "probe"))
		vc := uint8(255)
		for c := 0; c < 500; c++ {
			// Sample the head of the ejection buffer before the endpoint
			// consumes it: that is the VC the flit travelled its last link
			// on (the local port never rewrites VCs).
			if f, ok := dstEp.ej.peek(); ok {
				vc = f.VC
			}
			clk.RunCycles(1)
			if _, ok := dstEp.Recv(); ok {
				if vc == 255 {
					t.Fatalf("probe %v->%v arrived without an observed flit", src, dst)
				}
				return vc
			}
		}
		t.Fatalf("probe %v->%v never arrived", src, dst)
		return 0
	}

	// (0,0) -> (1,0): one east hop, no wrap: stays on VC0.
	if vc := lastVC(ids[0], ids[1]); vc != VCNormal {
		t.Fatalf("non-wrapping probe on VC%d, want VC0", vc)
	}
	// (3,0) -> (0,0): east wrap link is the X dateline: arrives on VC1.
	if vc := lastVC(ids[3], ids[0]); vc != VCLocked {
		t.Fatalf("X-wrap probe on VC%d, want VC1 (dateline switch)", vc)
	}
	// (0,3) -> (0,0): south wrap is the Y dateline: arrives on VC1.
	if vc := lastVC(ids[12], ids[0]); vc != VCLocked {
		t.Fatalf("Y-wrap probe on VC%d, want VC1 (dateline switch)", vc)
	}
}

func TestMeshXYPath(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	nodes := map[noctypes.NodeID]Coord{
		0: {0, 0}, 1: {2, 0}, 2: {0, 1}, 3: {2, 1},
	}
	net := NewMesh(clk, NetConfig{}, MeshSpec{W: 3, H: 2, Nodes: nodes})
	// XY from (0,0) to (2,1): East, East, South, Local = 4 links.
	path := net.Path(0, 3)
	if len(path) != 4 {
		t.Fatalf("path length = %d, want 4 (%v)", len(path), path)
	}
	last := path[len(path)-1]
	if last.Port != portLocal {
		t.Fatalf("path does not end at a local port: %v", path)
	}
	// Reverse path differs (YX vs XY asymmetry is fine; both are 4 links).
	if rev := net.Path(3, 0); len(rev) != 4 {
		t.Fatalf("reverse path length = %d", len(rev))
	}
}

func TestTreeDelivery(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	ids := []noctypes.NodeID{10, 11, 12, 13, 14, 15}
	net := NewTree(clk, NetConfig{}, 2, ids)
	tn := &testNet{k: k, clk: clk, net: net}

	// Cross-leaf and intra-leaf traffic.
	net.Endpoint(10).TrySend(pkt(10, 11, "intra"))
	net.Endpoint(10).TrySend(pkt(10, 15, "cross"))
	tn.runUntilDrained(t, 500)
	if p, ok := net.Endpoint(11).Recv(); !ok || string(p.Payload) != "intra" {
		t.Fatal("intra-leaf packet lost")
	}
	if p, ok := net.Endpoint(15).Recv(); !ok || string(p.Payload) != "cross" {
		t.Fatal("cross-leaf packet lost")
	}
}

func TestLargePayloadIntegrity(t *testing.T) {
	tn := newXbar(NetConfig{BufDepth: 4}, 1, 2)
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	p := &Packet{Header: Header{Kind: KindReq, Dst: 2, Src: 1}, Payload: payload}
	if !tn.net.Endpoint(1).TrySend(p) {
		t.Fatal("send refused")
	}
	tn.runUntilDrained(t, 1000)
	got, ok := tn.net.Endpoint(2).Recv()
	if !ok {
		t.Fatal("large packet lost")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestSAFOversizePacketPanics(t *testing.T) {
	tn := newXbar(NetConfig{Mode: StoreAndForward, BufDepth: 4}, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize SAF packet did not panic")
		}
	}()
	tn.net.Endpoint(1).TrySend(&Packet{
		Header:  Header{Dst: 2, Src: 1},
		Payload: make([]byte, 100), // 116 wire bytes -> 15 flits > 4
	})
}

func TestWrongSrcPanics(t *testing.T) {
	tn := newXbar(NetConfig{}, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-src send did not panic")
		}
	}()
	tn.net.Endpoint(1).TrySend(pkt(2, 1, "forged"))
}

func TestTransitRecords(t *testing.T) {
	tn := newXbar(NetConfig{}, 1, 2)
	var recs []TransitRecord
	tn.net.OnTransit = func(r TransitRecord) { recs = append(recs, r) }
	tn.net.Endpoint(1).TrySend(pkt(1, 2, "abc"))
	tn.runUntilDrained(t, 100)
	tn.net.Endpoint(2).Recv()
	if len(recs) != 1 {
		t.Fatalf("got %d transit records", len(recs))
	}
	r := recs[0]
	if r.NetworkLatency() <= 0 || r.TotalLatency() < r.NetworkLatency() {
		t.Fatalf("implausible latencies: %+v", r)
	}
	if r.Hops < 1 {
		t.Fatalf("hops = %d", r.Hops)
	}
}

func TestSAFSlowerThanWormholePerHop(t *testing.T) {
	latency := func(mode SwitchingMode) int64 {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
		nodes := map[noctypes.NodeID]Coord{0: {0, 0}, 1: {3, 0}}
		net := NewMesh(clk, NetConfig{Mode: mode, BufDepth: 32}, MeshSpec{W: 4, H: 1, Nodes: nodes})
		var lat int64 = -1
		net.OnTransit = func(r TransitRecord) { lat = r.NetworkLatency() }
		p := &Packet{Header: Header{Dst: 1, Src: 0}, Payload: make([]byte, 64)} // 10 flits
		net.Endpoint(0).TrySend(p)
		for c := 0; c < 500 && lat < 0; c++ {
			clk.RunCycles(1)
		}
		if lat < 0 {
			t.Fatalf("%s: packet never arrived", mode)
		}
		return lat
	}
	wh, saf := latency(Wormhole), latency(StoreAndForward)
	if saf <= wh {
		t.Fatalf("store-and-forward (%d cyc) not slower than wormhole (%d cyc) on multi-hop multi-flit", saf, wh)
	}
}

func TestNetworkAccessors(t *testing.T) {
	tn := newXbar(NetConfig{}, 5, 6)
	if len(tn.net.Nodes()) != 2 || len(tn.net.Routers()) != 1 {
		t.Fatal("accessor counts wrong")
	}
	if tn.net.Endpoint(5).ID() != 5 {
		t.Fatal("endpoint ID wrong")
	}
	if tn.net.Endpoint(99) != nil {
		t.Fatal("phantom endpoint")
	}
	if tn.net.Config().FlitBytes != 8 {
		t.Fatal("defaults not applied")
	}
}

// saturate floods the fabric with uniform-random traffic from every
// node for busy cycles, then stops injecting and counts whether the
// fabric keeps moving — the deadlock-freedom regression for cyclic
// topologies (a wedged ring shows zero progress in the quiet phase and
// never drains).
func saturate(t *testing.T, clk *sim.Clock, net *Network, ids []noctypes.NodeID, busy, quiet int) {
	t.Helper()
	rng := sim.NewRNG(1)
	for c := 0; c < busy; c++ {
		for i, id := range ids {
			d := rng.Intn(len(ids) - 1)
			if d >= i {
				d++
			}
			ep := net.Endpoint(id)
			ep.TrySend(&Packet{
				Header:  Header{Kind: KindReq, Dst: ids[d], Src: id},
				Payload: make([]byte, 32),
			})
			for {
				if _, ok := ep.Recv(); !ok {
					break
				}
			}
		}
		clk.RunCycles(1)
	}
	for c := 0; c < quiet && !net.Drained(); c++ {
		clk.RunCycles(1)
		for _, id := range ids {
			for {
				if _, ok := net.Endpoint(id).Recv(); !ok {
					break
				}
			}
		}
	}
	if !net.Drained() {
		t.Fatalf("fabric wedged under saturation: %d packets stuck in flight after %d quiet cycles",
			net.InFlight(), quiet)
	}
	// Sanity floor: a wedged fabric stops injecting within its first few
	// hundred cycles (the frozen ring managed 85 in 3000); a merely
	// saturated one keeps absorbing packets as fast as it drains them.
	if net.Injected() < uint64(busy)/4 {
		t.Fatalf("implausibly few injections under saturation: %d in %d cycles", net.Injected(), busy)
	}
}

// TestRingSaturationNoDeadlock pins the fix for the wormhole ring
// deadlock: dateline VCs alone cannot help when an output port is held
// head-to-tail by a blocked packet (the physical-link cycle closes
// around the ring); cut-through admission guarantees held outputs
// drain.
func TestRingSaturationNoDeadlock(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	var ids []noctypes.NodeID
	for i := 0; i < 16; i++ {
		ids = append(ids, noctypes.NodeID(i+1))
	}
	saturate(t, clk, NewRing(clk, NetConfig{}, ids), ids, 3000, 4000)
}

func TestTorusSaturationNoDeadlock(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	nodes := map[noctypes.NodeID]Coord{}
	var ids []noctypes.NodeID
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			id := noctypes.NodeID(y*4 + x + 1)
			nodes[id] = Coord{x, y}
			ids = append(ids, id)
		}
	}
	saturate(t, clk, NewTorus(clk, NetConfig{}, MeshSpec{W: 4, H: 4, Nodes: nodes}), ids, 3000, 4000)
}

func TestParseTopology(t *testing.T) {
	for _, tp := range Topologies() {
		got, err := ParseTopology(tp.String())
		if err != nil || got != tp {
			t.Fatalf("ParseTopology(%q) = %v, %v", tp.String(), got, err)
		}
	}
	if tp, err := ParseTopology("xbar"); err != nil || tp != Crossbar {
		t.Fatal("ParseTopology(xbar) alias broken")
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Fatal("bad topology accepted")
	}
}

// TestBuildPlacesNodes: Build attaches every node on each topology, and
// a grid too small for the nodes is a configuration error.
func TestBuildPlacesNodes(t *testing.T) {
	ids := []noctypes.NodeID{1, 2, 3, 4, 5, 6}
	for _, tp := range Topologies() {
		clk := sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0)
		net := Build(clk, NetConfig{}, Shape{Topology: tp, W: 3, H: 2, Fanout: 4}, ids)
		if got := net.Nodes(); fmt.Sprint(got) != fmt.Sprint(ids) {
			t.Fatalf("%v: nodes %v, want %v", tp, got, ids)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 2x2 mesh accepted 6 nodes")
		}
	}()
	Build(sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0), NetConfig{}, Shape{Topology: Mesh, W: 2, H: 2}, ids)
}

// TestEndpointBuildAllocs: a fabric carves its endpoints' ejection
// buffers and send queues in one piece, so an added endpoint costs
// only its own objects (the Endpoint, its receive pipe), not flit
// stores and names of its own.
func TestEndpointBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	build := func(nodes int) float64 {
		ids := make([]noctypes.NodeID, nodes)
		for i := range ids {
			ids[i] = noctypes.NodeID(i + 1)
		}
		return testing.AllocsPerRun(20, func() {
			NewCrossbar(sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0), NetConfig{}, ids)
		})
	}
	small, large := build(16), build(32)
	if per := (large - small) / 16; per > 3 {
		t.Fatalf("%.2f allocations per added endpoint (16 nodes: %.0f, 32 nodes: %.0f), want at most 3", per, small, large)
	}
}

// TestWholePacketDepth: only fabrics that buffer whole packets ask for
// a minimum lane depth, and it holds the header and the payload.
func TestWholePacketDepth(t *testing.T) {
	cases := []struct {
		tp   Topology
		cfg  NetConfig
		want int
	}{
		{Crossbar, NetConfig{}, 0},
		{Mesh, NetConfig{}, 0},
		{Tree, NetConfig{}, 0},
		{Ring, NetConfig{}, 6},                                     // (16+32)/8
		{Torus, NetConfig{FlitBytes: 16}, 3},                       // (16+32)/16
		{Mesh, NetConfig{Mode: StoreAndForward, FlitBytes: 5}, 10}, // ceil(48/5)
	}
	for _, c := range cases {
		if got := WholePacketDepth(c.tp, c.cfg, 32); got != c.want {
			t.Errorf("WholePacketDepth(%v, %+v, 32) = %d, want %d", c.tp, c.cfg, got, c.want)
		}
	}
}
