package transport

import (
	"fmt"
	"math/bits"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
)

// SwitchingMode selects how switches handle packets. The paper's layering
// claim (§1) is that this choice is invisible at the transaction level —
// experiment E3 verifies exactly that.
type SwitchingMode uint8

const (
	// Wormhole: a packet's flits stream through as soon as the head wins
	// an output; buffers hold a few flits per hop.
	Wormhole SwitchingMode = iota
	// StoreAndForward: a switch buffers the entire packet before
	// competing for an output; per-hop latency grows with packet length.
	StoreAndForward
)

// String renders a SwitchingMode.
func (m SwitchingMode) String() string {
	if m == Wormhole {
		return "wormhole"
	}
	return "store-and-forward"
}

type laneRef struct{ port, vc int }

var noLane = laneRef{-1, -1}

// RouterStats aggregates a switch's activity.
type RouterStats struct {
	FlitsMoved uint64
	PktsMoved  uint64
	LockStalls uint64 // allocation attempts denied by a lock reservation
	// BusyStalls counts head flits that lost arbitration for a free
	// output to another candidate of the same cycle (under QoS, one of
	// equal priority). Heads waiting on a held output are not counted.
	BusyStalls uint64
	OutBusy    []uint64 // per-output busy (flit-moved) cycles
	OutStall   []uint64 // per-output cycles a granted output moved no flit
}

// Router is an N-port NoC switch. It owns its input buffers (one
// struct-of-arrays flit lane per port per virtual channel); its outputs
// are references to the downstream hop's input lanes or to an
// endpoint's ejection buffer. It is not a clocked component itself: the
// owning Network drives every switch that is not idle and commits the
// touched lanes in one batched pass per clock edge.
//
// Arbitration: an output is held by one packet from head to tail
// (wormhole) or for a buffered packet's full streaming (store-and-
// forward). Free outputs are granted to the highest-priority competing
// head flit (when QoS is on), round-robin across ports for fairness.
//
// Legacy-lock handling (paper §3: switches "take specific decisions when
// they see LOCK-related packets"): when a lock-flagged packet's tail
// passes an output, the output stays reserved for that packet's source
// until an unlock-flagged packet's tail passes. Other sources' packets
// cannot allocate a reserved output — the transport-level cost the
// exclusive-access service avoids.
type Router struct {
	name  string
	index int      // position in the network's router list
	net   *Network // the owning fabric: switching mode, QoS, flit width and cut-through admission

	lanes    [][]*flitQ // [port][vc] input lanes (owned)
	outs     [][]*flitQ // [port][vc] downstream lanes (referenced)
	laneHdr  [][]Header // [port][vc] header of packet in flight
	laneAl   [][]int    // [port][vc] allocated output, -1
	outHold  []laneRef  // per output: lane holding it
	holds    int        // outputs held: entries of outHold other than noLane
	outFreed []int64    // per output: cycle its last tail left, -1; not reallocatable in that cycle
	outLock  []int32    // per output: locked-for source NodeID, -1
	rr       []int      // per output: round-robin port pointer

	// route is the routing table, indexed by destination NodeID: the
	// output port a packet for that node leaves through, -1 for a node
	// the switch cannot reach. Sized for the fabric's nodes when the
	// switch is made; topology builders fill it once.
	route []int32

	// occ marks the input lanes that hold a committed flit: bit
	// port*NumVCs+vc of the mask, 64 lanes a word. A lane's commit sets
	// its bit when the lane fills and its pop clears it when the lane
	// empties, so switch allocation visits only lanes with a head.
	occ []uint64

	// req is the per-output request table of the allocation pass,
	// allocated once at build time so steady-state allocation never
	// touches the heap.
	req []outReq

	// vcOut, when non-nil, rewrites a flit's virtual channel as it leaves
	// the switch: vcOut[in][out] is the VC flits arriving on input port
	// `in` travel on after leaving output `out` (-1 keeps the flit's
	// current VC). Ring and torus builders use it for dateline VC
	// switching (Dally/Seitz): a packet crossing the wrap link moves to
	// the escape VC, which breaks the channel-dependency cycle a ring
	// would otherwise close.
	vcOut [][]int8

	// probe, when non-nil, observes flits, stalls and VC allocations,
	// and buffer occupancy when sample is set (Network.SetProbe
	// distributes both). Every emission site is behind one branch, so
	// disabled instrumentation costs no allocations on the hot path.
	probe  obs.Probe
	sample bool

	stats RouterStats
	evals uint64 // cycles evaluated (the fabric tick skips idle ones)
}

// outReq is one output's best requester so far in a cycle's
// allocation pass.
type outReq struct {
	win  laneRef
	rank int               // round-robin rank of win (lower wins)
	pri  noctypes.Priority // win's priority (QoS only)
	n    int               // requesters at pri; all requesters without QoS
}

// newRouter creates a switch with numPorts ports on n: its input lanes
// join the network's batched commit pass, and it takes the next index
// in n.routers and a row of unconnected ports in n.adj. Builders wire
// its outputs afterwards with link and attach.
func newRouter(n *Network, name string, numPorts int) *Router {
	r := &Router{
		name:  name,
		index: len(n.routers),
		net:   n,
		route: make([]int32, len(n.eps)),
		occ:   make([]uint64, (numPorts*NumVCs+63)/64),
	}
	for i := range r.route {
		r.route[i] = -1
	}
	// Per-port rows are windows of one array per table, indexed like the
	// lanes: lane port*NumVCs+vc.
	r.lanes = make([][]*flitQ, numPorts)
	r.outs = make([][]*flitQ, numPorts)
	r.laneHdr = make([][]Header, numPorts)
	r.laneAl = make([][]int, numPorts)
	lanes := n.addLanes(name, numPorts*NumVCs, n.cfg.BufDepth)
	refs := make([]*flitQ, 2*numPorts*NumVCs) // input lanes, then outputs' downstream lanes
	hdrs := make([]Header, numPorts*NumVCs)
	als := make([]int, numPorts*NumVCs)
	for p := 0; p < numPorts; p++ {
		lo, hi := p*NumVCs, (p+1)*NumVCs
		r.lanes[p] = refs[lo:hi:hi]
		r.outs[p] = refs[numPorts*NumVCs+lo : numPorts*NumVCs+hi : numPorts*NumVCs+hi]
		r.laneHdr[p] = hdrs[lo:hi:hi]
		r.laneAl[p] = als[lo:hi:hi]
		for v := 0; v < NumVCs; v++ {
			i := lo + v
			lane := &lanes[i]
			lane.occ, lane.bit = &r.occ[i/64], 1<<(i%64)
			r.lanes[p][v] = lane
			r.laneAl[p][v] = -1
		}
	}
	r.outHold = make([]laneRef, numPorts)
	r.outFreed = make([]int64, numPorts)
	r.outLock = make([]int32, numPorts)
	r.rr = make([]int, numPorts)
	r.req = make([]outReq, numPorts)
	adj := make([]int, numPorts)
	for o := range r.outHold {
		r.outHold[o] = noLane
		r.outFreed[o] = -1
		r.outLock[o] = -1
		adj[o] = -1
	}
	r.stats.OutBusy = make([]uint64, numPorts)
	r.stats.OutStall = make([]uint64, numPorts)
	n.routers = append(n.routers, r)
	n.adj = append(n.adj, adj)
	return r
}

// Name returns the router's name.
func (r *Router) Name() string { return r.name }

// Ports returns the number of ports.
func (r *Router) Ports() int { return len(r.lanes) }

// Stats returns a copy of the router's counters.
func (r *Router) Stats() RouterStats {
	s := r.stats
	s.OutBusy = append([]uint64(nil), r.stats.OutBusy...)
	s.OutStall = append([]uint64(nil), r.stats.OutStall...)
	return s
}

// setRoute declares that packets for node leave through port.
func (r *Router) setRoute(node noctypes.NodeID, port int) {
	if port < 0 || port >= len(r.lanes) {
		panic(fmt.Sprintf("transport: router %q: route %v -> bad port %d", r.name, node, port))
	}
	r.route[node] = int32(port)
}

// routeFor returns the output port for a destination. Unroutable
// destinations are topology-construction bugs and panic.
func (r *Router) routeFor(dst noctypes.NodeID) int {
	if int(dst) < len(r.route) {
		if p := r.route[dst]; p >= 0 {
			return int(p)
		}
	}
	panic(fmt.Sprintf("transport: router %q has no route to %v", r.name, dst))
}

// setVCOut declares that flits arriving on input port in leave output
// out on virtual channel vc (overriding the VC they arrived on). Lazily
// allocates the rewrite table; unset pairs keep the flit's VC.
func (r *Router) setVCOut(in, out int, vc uint8) {
	if r.vcOut == nil {
		r.vcOut = make([][]int8, len(r.lanes))
		for p := range r.vcOut {
			row := make([]int8, len(r.lanes))
			for o := range row {
				row[o] = -1
			}
			r.vcOut[p] = row
		}
	}
	r.vcOut[in][out] = int8(vc)
}

// connectOut wires output port o to the given per-VC downstream lanes.
func (r *Router) connectOut(o int, vcBufs [NumVCs]*flitQ) {
	for v := 0; v < NumVCs; v++ {
		r.outs[o][v] = vcBufs[v]
	}
}

// idle reports whether eval would do nothing this cycle: no input lane
// holds a committed flit (the occupancy mask is zero), no output is
// held, and no probe samples buffers. Phase 1 then has no held output
// to move a flit through or count a stall on, and allocation finds no
// head to grant, so the fabric tick skips the switch.
func (r *Router) idle() bool {
	if r.holds != 0 || r.sample {
		return false
	}
	for _, w := range r.occ {
		if w != 0 {
			return false
		}
	}
	return true
}

// eval runs one cycle of switch operation; the Network's fabric tick
// calls it on each clock edge the switch is not idle.
func (r *Router) eval(cycle int64) {
	r.evals++
	if r.sample {
		r.sampleBuffers(cycle)
	}

	// Phase 1: continuing packets move one flit toward their held output.
	for o := range r.outHold {
		ln := r.outHold[o]
		if ln == noLane {
			continue
		}
		if !r.moveFlit(cycle, o, ln) {
			r.noteStall(cycle, o)
		}
	}

	r.allocate(cycle)
}

// allocate is phase 2 of eval: it grants outputs that were free at cycle
// start. One input-driven pass visits each unallocated lane in the
// occupancy mask once, in ascending (port, VC) order; an empty lane has
// no head to request with, so skipping it changes nothing. A ready head
// requests exactly one output, its route, and each output keeps its
// best requester (see request). Outputs are then granted in ascending
// order. Granting output o changes only o's state and its winner lane,
// which requested nothing else, so the result equals arbitrating each
// free output over every lane in turn — at O(P + occupied lanes)
// instead of O(P²·V) per cycle. The one lane that can request twice is
// a winner whose single-flit packet drained in its grant cycle: its
// next head requests again, and only outputs after o still listen.
func (r *Router) allocate(cycle int64) {
	for o := range r.req {
		r.req[o].n = 0
	}
	for wi, w := range r.occ {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			p, v := i/NumVCs, i%NumVCs
			if r.laneAl[p][v] == -1 {
				r.request(cycle, p, v, -1)
			}
		}
	}
	for o := range r.req {
		q := &r.req[o]
		if q.n == 0 {
			continue
		}
		r.stats.BusyStalls += uint64(q.n - 1)
		win := q.win
		lane := r.lanes[win.port][win.vc]
		hs := lane.slot(0)
		r.outHold[o] = win
		r.holds++
		r.laneAl[win.port][win.vc] = o
		r.laneHdr[win.port][win.vc] = lane.ring.hdr[hs]
		r.rr[o] = win.port + 1
		if r.probe != nil {
			hdr := &lane.ring.hdr[hs]
			r.probe.Event(obs.Event{
				Kind: obs.KindVCAlloc, Cycle: cycle, PktID: lane.ring.pktID[hs],
				Src: hdr.Src, Dst: hdr.Dst,
				Router: r.index, Port: o, VC: r.outVC(win.port, o, lane.ring.vc[hs]),
			})
		}
		if !r.moveFlit(cycle, o, win) {
			r.noteStall(cycle, o)
		}
		if r.laneAl[win.port][win.vc] == -1 {
			r.request(cycle, win.port, win.vc, o)
		}
	}
}

// request files lane (port,vc)'s head packet, if ready, as a request for
// its route's output, provided that output comes after `after`, was free
// at the start of cycle and is connected. A lock reservation for another
// source denies the request (LockStalls); on a cut-through fabric so
// does a downstream buffer without room for the whole packet. The
// output keeps the best requester: highest priority under QoS, then
// lowest round-robin rank — ports in order from rr[o], VCLocked before
// VCNormal on one port so unlocking packets are never starved.
func (r *Router) request(cycle int64, port, vc, after int) {
	hs, ok := r.ready(port, vc)
	if !ok {
		return
	}
	lane := r.lanes[port][vc]
	hdr := &lane.ring.hdr[hs]
	o := r.routeFor(hdr.Dst)
	if o <= after || r.outHold[o] != noLane || r.outFreed[o] == cycle || r.outs[o][VCNormal] == nil {
		return
	}
	if lk := r.outLock[o]; lk >= 0 && noctypes.NodeID(lk) != hdr.Src {
		r.stats.LockStalls++
		return
	}
	// Virtual-cut-through admission: grant only with space for the whole
	// packet downstream (canPush keeps the check consistent with the
	// lanes' one-cycle credit semantics).
	if r.net.cutThrough {
		need := FlitCount(HeaderBytes+int(hdr.PayloadLen), r.net.cfg.FlitBytes)
		if !r.outs[o][r.outVC(port, o, lane.ring.vc[hs])].canPush(need) {
			return
		}
	}
	d := port - r.rr[o] // rr[o] is at most len(r.lanes)
	if d < 0 {
		d += len(r.lanes)
	}
	rank := d*NumVCs + (NumVCs - 1 - vc)
	q := &r.req[o]
	var pri noctypes.Priority
	if r.net.cfg.QoS {
		pri = hdr.Priority
	}
	switch {
	case q.n == 0 || pri > q.pri:
		*q = outReq{win: laneRef{port, vc}, rank: rank, pri: pri, n: 1}
	case pri == q.pri:
		q.n++
		if rank < q.rank {
			q.win, q.rank = laneRef{port, vc}, rank
		}
	}
}

// noteStall records that a granted output moved no flit this cycle.
func (r *Router) noteStall(cycle int64, o int) {
	r.stats.OutStall[o]++
	if r.probe != nil {
		r.probe.Event(obs.Event{Kind: obs.KindStall, Cycle: cycle, Router: r.index, Port: o})
	}
}

// sampleBuffers reports the start-of-cycle occupancy of every buffer
// downstream of this switch's outputs — the congestion a link's flits
// run into. Runs only for a probe that reads samples. Endpoint
// ejection ports alias one buffer across both VCs; the duplicate sample
// is skipped so the heatmap's VC1 column stays meaningful.
func (r *Router) sampleBuffers(cycle int64) {
	for o := range r.outs {
		for v := 0; v < NumVCs; v++ {
			dst := r.outs[o][v]
			if dst == nil || (v > 0 && dst == r.outs[o][v-1]) {
				continue
			}
			r.probe.Event(obs.Event{
				Kind: obs.KindBufSample, Cycle: cycle,
				Router: r.index, Port: o, VC: uint8(v), Val: dst.len(),
			})
		}
	}
}

// moveFlit attempts to forward one flit from lane ln through output o,
// handling tail release and lock reservation bookkeeping. It reports
// whether a flit moved (false = a stall cycle for the output). The move
// is slot-to-slot: a struct-of-arrays copy from the input lane's head
// into the downstream lane's staging slot, with the VC rewrite and hop
// count applied in place.
func (r *Router) moveFlit(cycle int64, o int, ln laneRef) bool {
	lane := r.lanes[ln.port][ln.vc]
	if lane.clen == 0 {
		return false // wormhole bubble: body flits not yet arrived
	}
	hs := lane.slot(0)
	vc := r.outVC(ln.port, o, lane.ring.vc[hs])
	dst := r.outs[o][vc]
	if dst == nil {
		panic(fmt.Sprintf("transport: router %q output %d has no VC%d buffer", r.name, o, vc))
	}
	if !dst.canPush(1) {
		return false // downstream backpressure
	}
	si := dst.stagePush()
	dst.ring.copySlot(si, &lane.ring, hs, lane.stride)
	dst.ring.vc[si] = vc
	dst.ring.hops[si] = lane.ring.hops[hs] + 1
	pktID := lane.ring.pktID[hs]
	tail := lane.ring.flags[hs]&slotTail != 0
	lane.pop()
	r.stats.FlitsMoved++
	r.stats.OutBusy[o]++
	if r.probe != nil {
		r.probe.Event(obs.Event{
			Kind: obs.KindFlit, Cycle: cycle, PktID: pktID,
			Router: r.index, Port: o, VC: vc,
		})
	}
	if tail {
		r.stats.PktsMoved++
		hdr := r.laneHdr[ln.port][ln.vc]
		r.outHold[o] = noLane
		r.holds--
		r.outFreed[o] = cycle
		r.laneAl[ln.port][ln.vc] = -1
		// Lock reservations persist between the packets of a locked
		// sequence and dissolve when the unlocking packet's tail passes.
		if hdr.Locked {
			if hdr.Unlock {
				r.outLock[o] = -1
			} else {
				r.outLock[o] = int32(hdr.Src)
			}
		}
	}
	return true
}

// outVC returns the virtual channel a flit arriving on input port in
// with channel vc travels on after leaving output o.
func (r *Router) outVC(in, o int, vc uint8) uint8 {
	if r.vcOut != nil {
		if nv := r.vcOut[in][o]; nv >= 0 {
			return uint8(nv)
		}
	}
	return vc
}

// ready reports whether the lane at (port,vc) has a packet ready to
// request an output: a committed head flit, and — in store-and-forward
// mode — the packet's tail already buffered. It returns the head slot's
// ring index.
func (r *Router) ready(port, vc int) (int, bool) {
	lane := r.lanes[port][vc]
	if lane.clen == 0 {
		return 0, false
	}
	hs := lane.slot(0)
	if lane.ring.flags[hs]&slotHead == 0 {
		return 0, false
	}
	if r.net.cfg.Mode == StoreAndForward && lane.ring.flags[hs]&slotTail == 0 {
		found := false
		for i := 1; i < lane.clen; i++ {
			if lane.ring.flags[lane.slot(i)]&slotTail != 0 {
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return hs, true
}
