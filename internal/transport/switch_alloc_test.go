package transport

import (
	"fmt"
	"math/rand"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// refAllocate is the per-output switch allocator the one-pass
// Router.allocate replaced, kept as the differential reference: every
// free output, in ascending order, scans every (port, VC) lane for a
// ready head routed to it.
func refAllocate(r *Router, cycle int64) {
	for o := range r.outHold {
		if r.outHold[o] != noLane || r.outFreed[o] == cycle {
			continue
		}
		if r.outs[o*NumVCs] == nil {
			continue
		}
		win := refArbitrate(r, o)
		if win == noLane {
			continue
		}
		r.outHold[o] = win
		r.laneAl[win] = o
		r.rr[o] = win/NumVCs + 1
		if !r.moveFlit(cycle, o, win) {
			r.noteStall(cycle, o)
		}
	}
}

// refArbitrate picks the winning lane for free output o, or noLane.
func refArbitrate(r *Router, o int) int {
	type cand struct {
		port, vc int
		pri      noctypes.Priority
	}
	var cands []cand
	for p := 0; p < r.Ports(); p++ {
		for v := 0; v < NumVCs; v++ {
			l := p*NumVCs + v
			if r.laneAl[l] != -1 {
				continue
			}
			hs, ok := r.ready(l)
			if !ok {
				continue
			}
			s := &r.lanes[l].slots[hs]
			hdr := &s.hdr
			if r.routeFor(hdr.Dst) != o {
				continue
			}
			if lk := r.outLock[o]; lk >= 0 && noctypes.NodeID(lk) != hdr.Src {
				r.stats.LockStalls++
				continue
			}
			if r.net.cutThrough {
				need := FlitCount(HeaderBytes+int(hdr.PayloadLen), r.net.cfg.FlitBytes)
				if !r.outs[o*NumVCs+int(r.outVC(p, o, s.vc))].canPush(need) {
					continue
				}
			}
			cands = append(cands, cand{p, v, hdr.Priority})
		}
	}
	if len(cands) == 0 {
		return noLane
	}
	if r.net.cfg.QoS {
		var max noctypes.Priority
		for _, c := range cands {
			if c.pri > max {
				max = c.pri
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if c.pri == max {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	best := noLane
	bestRank := 1 << 30
	n := r.Ports()
	for _, c := range cands {
		rank := ((c.port-r.rr[o])%n+n)%n*NumVCs + (NumVCs - 1 - c.vc)
		if rank < bestRank {
			bestRank = rank
			best = c.port*NumVCs + c.vc
		}
	}
	if len(cands) > 1 {
		r.stats.BusyStalls += uint64(len(cands) - 1)
	}
	return best
}

// allocCycle is the cycle FuzzSwitchAllocation allocates in; allocState
// stamps the outputs it frees with it.
const allocCycle = 7

// allocState builds a crossbar router in a random mid-cycle state drawn
// from seed: committed flits with random head/tail flags in every input
// lane, each carrying a header, as serialize stamps every flit of a
// packet: a head draws a new header (destination, source, priority and
// lock bits), and the flits behind it carry it, so tails drive the
// lock bookkeeping as they do in the fabric; held, freed,
// locked and unconnected outputs; random round-robin pointers, dateline
// VC rewrites, and partly filled (committed and staged) ejection
// buffers. The same seed and config always build the same state, so two
// calls give independent routers to run both allocators on.
func allocState(seed int64, mode SwitchingMode, qos, cutThrough bool) *Router {
	rng := rand.New(rand.NewSource(seed))
	ports := 2 + rng.Intn(5)
	nodes := make([]noctypes.NodeID, ports)
	for i := range nodes {
		nodes[i] = noctypes.NodeID(10 + i)
	}
	cfg := NetConfig{
		Mode:      mode,
		QoS:       qos,
		BufDepth:  1 + rng.Intn(6),
		FlitBytes: []int{8, 16, 32}[rng.Intn(3)],
	}
	clk := sim.NewClock(sim.NewKernel(), "alloc", sim.Nanosecond, 0)
	net := NewCrossbar(clk, cfg, nodes)
	net.cutThrough = cutThrough
	r := net.Routers()[0]

	var pktID uint64
	for l := range r.lanes {
		lane := &r.lanes[l]
		var hdr Header // the lane's packet in flight; none before its first flit
		for i := rng.Intn(cfg.BufDepth + 1); i > 0; i-- {
			pktID++
			f := Flit{PktID: pktID, VC: uint8(l % NumVCs), Head: rng.Intn(2) == 0, Tail: rng.Intn(2) == 0}
			if f.Head || hdr == (Header{}) {
				hdr = Header{
					Dst:        nodes[rng.Intn(ports)],
					Src:        nodes[rng.Intn(ports)],
					Priority:   noctypes.Priority(rng.Intn(noctypes.NumPriorities)),
					PayloadLen: uint32(rng.Intn(64)),
					Locked:     rng.Intn(4) == 0,
					Unlock:     rng.Intn(2) == 0,
				}
			}
			f.Hdr = hdr
			lane.pushFlit(f)
		}
		lane.commit()
	}
	for _, id := range nodes {
		ej := net.Endpoint(id).ej
		for i := rng.Intn(cfg.BufDepth + 1); i > 0; i-- {
			ej.pushFlit(Flit{})
		}
		ej.commit()
		for i := rng.Intn(cfg.BufDepth + 1); i > 0 && ej.canPush(1); i-- {
			ej.pushFlit(Flit{}) // staged this cycle, as by phase 1
		}
	}
	for o := 0; o < ports; o++ {
		r.rr[o] = rng.Intn(ports + 1)
		if rng.Intn(3) == 0 {
			r.outLock[o] = int32(nodes[rng.Intn(ports)])
		}
		for in := 0; in < ports; in++ {
			if rng.Intn(4) == 0 {
				r.setVCOut(in, o, uint8(rng.Intn(NumVCs)))
			}
		}
		switch rng.Intn(5) {
		case 0: // held by a random unallocated lane
			if l := rng.Intn(ports * NumVCs); r.laneAl[l] == -1 {
				r.outHold[o] = l
				r.laneAl[l] = o
			}
		case 1:
			r.outFreed[o] = allocCycle
		case 2: // unconnected, like a mesh edge port
			clear(r.outs[o*NumVCs : (o+1)*NumVCs])
		}
	}
	return r
}

// allocDigest renders everything switch allocation may touch: grants,
// round-robin pointers, lane allocations, output marks and locks,
// counters, and input/downstream queue positions.
func allocDigest(r *Router) string {
	s := fmt.Sprintf("hold=%v al=%v rr=%v freed=%v lock=%v stats=%+v\n",
		r.outHold, r.laneAl, r.rr, r.outFreed, r.outLock, r.stats)
	for l := range r.lanes {
		s += fmt.Sprintf("in%d head=%d clen=%d\n", l, r.lanes[l].head, r.lanes[l].clen)
	}
	for o := 0; o < r.Ports(); o++ {
		if q := r.outs[o*NumVCs]; q != nil {
			s += fmt.Sprintf("out%d clen=%d pend=%d\n", o, q.clen, q.pend)
		}
	}
	return s
}

// FuzzSwitchAllocation checks the one-pass allocator against the
// per-output reference on random router states, under QoS on/off ×
// CutThrough on/off × wormhole/store-and-forward. No golden pins
// LockStalls or BusyStalls, so this is their guard.
func FuzzSwitchAllocation(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, mode := range []SwitchingMode{Wormhole, StoreAndForward} {
			for _, qos := range []bool{false, true} {
				for _, ct := range []bool{false, true} {
					got, want := allocState(seed, mode, qos, ct), allocState(seed, mode, qos, ct)
					got.allocate(allocCycle)
					refAllocate(want, allocCycle)
					if allocDigest(got) != allocDigest(want) {
						t.Fatalf("seed %d %v qos=%v cut-through=%v:\none-pass:  %s\nreference: %s",
							seed, mode, qos, ct, allocDigest(got), allocDigest(want))
					}
				}
			}
		}
	})
}

// TestAllocateSingleFlitDrain pins the one case where a lane requests
// twice in a cycle: its single-flit packet wins output 1 and drains in
// the grant cycle, and the next head behind it, routed to output 2, is
// granted in the same cycle — as the per-output reference does.
func TestAllocateSingleFlitDrain(t *testing.T) {
	build := func() *Router {
		clk := sim.NewClock(sim.NewKernel(), "drain", sim.Nanosecond, 0)
		net := NewCrossbar(clk, NetConfig{FlitBytes: 32}, []noctypes.NodeID{1, 2, 3})
		r := net.Routers()[0]
		lane := &r.lanes[0]
		for i, dst := range []noctypes.NodeID{2, 3} {
			lane.pushFlit(Flit{PktID: uint64(i + 1), Head: true, Tail: true, Hdr: Header{Src: 1, Dst: dst}})
		}
		lane.commit()
		return r
	}
	got, want := build(), build()
	got.allocate(0)
	refAllocate(want, 0)
	if a, b := allocDigest(got), allocDigest(want); a != b {
		t.Fatalf("one-pass:  %s\nreference: %s", a, b)
	}
	if got.stats.PktsMoved != 2 {
		t.Fatalf("PktsMoved = %d, want 2 (both packets leave in one cycle)", got.stats.PktsMoved)
	}
}

// TestBusyStallsCountsLostArbitration pins BusyStalls: two heads reach
// one free output in the same cycle, one wins, and the loser then waits
// on a held output, which is not counted again.
func TestBusyStallsCountsLostArbitration(t *testing.T) {
	tn := newXbar(NetConfig{}, 1, 2, 3)
	if !tn.net.Endpoint(1).TrySend(pkt(1, 3, "a")) || !tn.net.Endpoint(2).TrySend(pkt(2, 3, "b")) {
		t.Fatal("TrySend refused on idle network")
	}
	tn.runUntilDrained(t, 200)
	st := tn.net.Routers()[0].Stats()
	if st.BusyStalls != 1 {
		t.Fatalf("BusyStalls = %d, want 1", st.BusyStalls)
	}
	if st.PktsMoved != 2 {
		t.Fatalf("PktsMoved = %d, want 2", st.PktsMoved)
	}
}

// occupancyMismatch describes the first switch input lane whose
// occupancy bit disagrees with whether the lane holds a committed flit,
// or a bit set past the last lane; "" when every mask is exact.
func occupancyMismatch(net *Network) string {
	for _, r := range net.Routers() {
		lanes := 0
		for i := range r.lanes {
			set := r.occ[i/64]&(1<<(i%64)) != 0
			if n := r.lanes[i].clen; set != (n > 0) {
				return fmt.Sprintf("%s in%d.vc%d: bit %v with %d committed flits", r.name, i/NumVCs, i%NumVCs, set, n)
			}
			if set {
				lanes++
			}
		}
		bits := 0
		for _, w := range r.occ {
			for ; w != 0; w &= w - 1 {
				bits++
			}
		}
		if bits != lanes {
			return fmt.Sprintf("%s: %d bits set for %d occupied lanes", r.name, bits, lanes)
		}
	}
	return ""
}

// TestOccupancyMaskTracksLanes drives random traffic through every
// topology, in both switching modes, with QoS on one fabric (the ring
// and torus are cut-through with dateline VC rewrites) and a legacy-lock
// sequence on another, and checks after every cycle that each router's
// occupancy mask is exactly the set of its input lanes holding a
// committed flit. Switch allocation visits only the lanes in the mask,
// so a bit missing there would lose a head flit.
func TestOccupancyMaskTracksLanes(t *testing.T) {
	const side = 3
	ids := make([]noctypes.NodeID, side*side)
	spec := MeshSpec{W: side, H: side, Nodes: map[noctypes.NodeID]Coord{}}
	for i := range ids {
		ids[i] = noctypes.NodeID(i + 1)
		spec.Nodes[ids[i]] = Coord{X: i % side, Y: i / side}
	}
	builders := map[string]func(*sim.Clock, NetConfig) *Network{
		"crossbar": func(c *sim.Clock, cfg NetConfig) *Network { return NewCrossbar(c, cfg, ids) },
		"mesh":     func(c *sim.Clock, cfg NetConfig) *Network { return NewMesh(c, cfg, spec) },
		"torus":    func(c *sim.Clock, cfg NetConfig) *Network { return NewTorus(c, cfg, spec) },
		"ring":     func(c *sim.Clock, cfg NetConfig) *Network { return NewRing(c, cfg, ids) },
		"tree":     func(c *sim.Clock, cfg NetConfig) *Network { return NewTree(c, cfg, 3, ids) },
	}
	type fabric struct {
		topo string
		cfg  NetConfig
		lock bool // node 1 runs a legacy-lock sequence
	}
	var fabrics []fabric
	for _, topo := range []string{"crossbar", "mesh", "torus", "ring", "tree"} {
		// BufDepth 6 holds the largest packet (16 B header + 24 B
		// payload = 5 flits) whole, as store-and-forward and cut-through
		// admission need.
		fabrics = append(fabrics,
			fabric{topo: topo, cfg: NetConfig{BufDepth: 6}},
			fabric{topo: topo, cfg: NetConfig{BufDepth: 6, Mode: StoreAndForward}})
	}
	fabrics = append(fabrics,
		fabric{topo: "tree", cfg: NetConfig{BufDepth: 6, QoS: true}},
		fabric{topo: "mesh", cfg: NetConfig{BufDepth: 6, LegacyLock: true}, lock: true})

	for fi, fb := range fabrics {
		t.Run(fmt.Sprintf("%s/%v/qos=%v/lock=%v", fb.topo, fb.cfg.Mode, fb.cfg.QoS, fb.lock), func(t *testing.T) {
			clk := sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0)
			net := builders[fb.topo](clk, fb.cfg)
			rng := rand.New(rand.NewSource(int64(fi + 1)))
			script := []*Packet{lockedPkt(1, 9, false), lockedPkt(1, 9, false), lockedPkt(1, 9, true)}
			step, lockOpen := 0, false
			var rx []*Packet
			cycle := func(inject bool) {
				for _, id := range ids {
					ep := net.Endpoint(id)
					switch {
					case fb.lock && id == 1:
						// Open the token at cycle 50, send the locked
						// sequence, and release once its unlock packet
						// has left the send queue and the fabric drained
						// it.
						if clk.Cycle() >= 50 && step < len(script) && net.TryAcquireLock(1) {
							lockOpen = true
							if ep.TrySend(script[step]) {
								step++
							}
						} else if lockOpen && step == len(script) && ep.pending == 0 && net.InFlight() == 0 {
							net.ReleaseLock(1)
							lockOpen = false
						}
					case inject && rng.Intn(3) == 0:
						d := ids[rng.Intn(len(ids))]
						if d == id {
							continue
						}
						p := net.NewPacket(rng.Intn(25))
						p.Kind, p.Src, p.Dst = KindReq, id, d
						p.Priority = noctypes.Priority(rng.Intn(noctypes.NumPriorities))
						ep.TrySend(p)
						net.Recycle(p)
					}
				}
				clk.RunCycles(1)
				if msg := occupancyMismatch(net); msg != "" {
					t.Fatalf("cycle %d: %s", clk.Cycle(), msg)
				}
				for _, id := range ids {
					rx = net.Endpoint(id).RecvAll(rx[:0])
					for _, p := range rx {
						net.Recycle(p)
					}
				}
			}
			for c := 0; c < 1500; c++ {
				cycle(true)
			}
			for c := 0; c < 4000 && (!net.Drained() || lockOpen); c++ {
				cycle(false)
			}
			if !net.Drained() || lockOpen || (fb.lock && step != len(script)) {
				t.Fatalf("did not drain: in flight %d, lock sequence at %d/%d, token held %v",
					net.InFlight(), step, len(script), lockOpen)
			}
			var moved, lockStalls uint64
			for _, r := range net.Routers() {
				moved += r.stats.FlitsMoved
				lockStalls += r.stats.LockStalls
			}
			if moved == 0 || (fb.lock && lockStalls == 0) {
				t.Fatalf("traffic too light to test the mask: %d flits moved, %d lock stalls", moved, lockStalls)
			}
		})
	}
}
