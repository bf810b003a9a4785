package transport

import (
	"fmt"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
)

// NetConfig parameterizes a whole fabric.
type NetConfig struct {
	FlitBytes      int // flit payload width in bytes (default 8)
	BufDepth       int // per-lane buffer depth in flits (default 8; SAF needs >= max packet flits)
	Mode           SwitchingMode
	QoS            bool // priority arbitration in switches
	MaxPendingPkts int  // per-endpoint send queue depth in packets (default 4)
	LegacyLock     bool // enable the global legacy-lock token (READEX/LOCK support)

	// Fidelity selects the execution mode (see the Fidelity type).
	// FidelityCycle — the zero value — is the cycle-accurate fabric,
	// provably inert with respect to this knob; hybrid routes cold-path
	// packets through the analytic latency model in fidelity.go.
	Fidelity Fidelity
}

// WithDefaults returns the configuration with zero fields filled the
// way fabric builders will fill them, so callers sizing packets or
// buffers against the config see the fabric's real numbers. (This is
// the package's only defaulting method: the other config types in the
// repo keep theirs unexported because nothing outside their packages
// sizes against them.)
func (c NetConfig) WithDefaults() NetConfig {
	if c.FlitBytes == 0 {
		c.FlitBytes = 8
	}
	if c.BufDepth == 0 {
		c.BufDepth = 8
	}
	if c.MaxPendingPkts == 0 {
		c.MaxPendingPkts = 4
	}
	return c
}

// TransitRecord describes one packet's journey, reported via
// Network.OnTransit when the tail flit is reassembled at the destination.
type TransitRecord struct {
	Pkt         *Packet
	QueuedCycle int64 // cycle TrySend accepted the packet
	InjectCycle int64 // cycle the head flit entered the fabric
	EjectCycle  int64 // cycle the tail flit completed reassembly
	Hops        int
}

// NetworkLatency returns fabric cycles from injection to ejection.
func (t TransitRecord) NetworkLatency() int64 { return t.EjectCycle - t.InjectCycle }

// TotalLatency includes source queueing.
func (t TransitRecord) TotalLatency() int64 { return t.EjectCycle - t.QueuedCycle }

// LinkID identifies one switch output: the unit of path reservation.
type LinkID struct {
	Router int
	Port   int
}

// Network is an assembled fabric: switches, links, and endpoints. Use a
// topology builder (NewCrossbar, NewMesh, NewTorus, NewRing, NewTree)
// to construct one.
//
// The whole fabric is driven by a single clocked component: one Eval
// call steps every busy switch and every endpoint, and one entry on the
// clock's commit list commits the flit lanes the edge touched in a tight
// batch loop. Compared to registering each lane as its own component,
// this removes per-lane interface dispatch from the per-cycle path — the
// "one call per (link, edge)" batching the hot path is built around. A
// switch with no flit and no held output is skipped, and a fabric that
// holds no packet sleeps until TrySend wakes it.
type Network struct {
	clk *sim.Clock
	cfg NetConfig

	routers []*Router
	qs      []*flitQ    // every flit lane in the fabric; the reference sweep commits them all
	touched []*flitQ    // the commit list: lanes staged or popped this edge
	eps     []*Endpoint // indexed by NodeID; nil where no node is attached
	epOrder []noctypes.NodeID
	epList  []*Endpoint // evaluation order (attach order)

	// ejs and sends are every endpoint's ejection buffer and send queue,
	// carved once for the fabric's nodes; attach takes the next of each.
	ejs, sends []flitQ

	nextPktID uint64

	// cutThrough makes every switch's output allocation virtual-cut-
	// through: an output is granted only when the downstream buffer can
	// hold the candidate packet entirely. An output then never stalls
	// mid-packet (each input lane has exactly one feeder output, so
	// reserved space cannot be stolen), which removes held output ports
	// from the deadlock dependency graph — on ring and torus fabrics the
	// physical links form a cycle, and a packet streaming wormhole-style
	// through a held output would close it even across the dateline VC
	// switch. Ring and torus builders set it; acyclic fabrics don't need
	// it. Such fabrics size packets against switch buffers at TrySend,
	// like store-and-forward: a packet larger than a lane can never be
	// granted an output.
	cutThrough bool

	lockHeld  bool
	lockOwner noctypes.NodeID

	// pool is the packet-descriptor free list: ejection-side reassembly
	// draws descriptors (and their payload capacity) from it, and Recycle
	// returns them. A consumer that never recycles simply sees freshly
	// allocated packets, exactly as before pooling.
	pool pktPool

	// OnTransit, when non-nil, observes every completed packet journey.
	// Set it after the topology builder returns.
	OnTransit func(TransitRecord)

	// probe, when non-nil, receives instrumentation events from the
	// fabric (see SetProbe); sample records whether it reads buffer
	// samples (obs.SamplesBuffers), the only events an empty fabric
	// emits.
	probe  obs.Probe
	sample bool

	// loose is the analytic fast path; nil on a cycle-accurate fabric,
	// which keeps the flit path's behaviour (and its zero-alloc
	// contract) byte-identical to a fabric built before the knob
	// existed. looseCycleActive counts flit-path packets between
	// TrySend acceptance and reassembly completion; when the engine is
	// on and the count is zero, the per-cycle switch/endpoint sweep is
	// skipped entirely — the speedup hybrid fidelity exists for.
	loose            *looseEngine
	looseCycleActive int

	injected, ejected uint64
	queued            int // flit-path packets accepted by TrySend, tail not yet injected

	wake     sim.Waker         // the fabric tick's handle: TrySend wakes a sleeping fabric
	staged   bool              // the lane commit is on this edge's commit list
	commitFn func(cycle int64) // cached n.commit; a method value per edge would allocate
}

// newNetwork creates an empty fabric for the given nodes: its endpoint
// table, and each router's routing table, cover their NodeIDs, and every
// node's ejection buffer and send queue are made here, ready for attach.
// A send queue is bounded in packets by MaxPendingPkts, not in flits: it
// starts at 8 slots and grows.
func newNetwork(clk *sim.Clock, cfg NetConfig, nodes []noctypes.NodeID) *Network {
	top := 0
	for _, id := range nodes {
		top = max(top, int(id))
	}
	n := &Network{clk: clk, cfg: cfg.WithDefaults(), eps: make([]*Endpoint, top+1)}
	n.ejs = n.addLanes("ej", len(nodes), n.cfg.BufDepth)
	n.sends = n.addLanes("send", len(nodes), 8)
	for i := range n.sends {
		n.sends[i].unbounded = true
	}
	if n.cfg.Fidelity != FidelityCycle {
		n.loose = &looseEngine{n: n}
	}
	n.commitFn = n.commit
	n.wake = clk.Register(netTick{n})
	return n
}

// netTick is the fabric's single clocked component: it batches every
// switch and endpoint of one Network into one Eval per clock edge.
type netTick struct{ n *Network }

// Eval implements sim.Clocked: one cycle of fabric operation. Switches
// and endpoints only read lane state committed in earlier cycles (and
// push into staging), so the iteration order here cannot influence
// results — the same discipline that made the per-component design
// registration-order independent. An idle switch (Router.idle) is
// skipped, except under the clock's evaluate-everything reference mode.
func (t netTick) Eval(cycle int64) {
	if le := t.n.loose; le != nil {
		le.tick(cycle)
		if t.n.looseCycleActive == 0 {
			// No flit-path packets anywhere in the fabric: every lane is
			// empty, so the switch/endpoint sweep and the lane commit
			// would be no-ops. Skipping them is where hybrid fidelity's
			// speedup comes from. (A flit-path TrySend later in the edge
			// stages the commit itself.)
			return
		}
	}
	t.n.stage()
	every := t.n.clk.EveryCycle()
	for _, r := range t.n.routers {
		if every || !r.idle() {
			r.eval(cycle)
		}
	}
	for _, ep := range t.n.epList {
		ep.eval(cycle)
	}
}

// Idle implements sim.Idler: a fabric with no packet anywhere — none
// waiting in a send queue, none between injection and ejection — has
// nothing to move, so its Eval would be a no-op until TrySend wakes it.
// A sampling probe reads every buffer on every cycle and the loose
// engine keeps time, so a fabric with either never sleeps. Every other
// event marks a packet moving, so a probe that declines buffer samples
// sees the same stream from a fabric that sleeps.
func (t netTick) Idle() bool {
	n := t.n
	return n.queued == 0 && n.injected == n.ejected && !n.sample && n.loose == nil
}

// stage puts the lane commit on the clock's commit list, once per edge.
func (n *Network) stage() {
	if !n.staged {
		n.staged = true
		n.clk.OnCommit(n.commitFn)
	}
}

// commit publishes the staged flits and returns the freed credit of
// every lane on the commit list in one batch pass. A lane off the list
// was neither pushed nor popped this edge, so its commit would be a
// no-op; the reference mode commits every lane anyway.
func (n *Network) commit(int64) {
	n.staged = false
	qs := n.touched
	if n.clk.EveryCycle() {
		qs = n.qs
	}
	for _, q := range qs {
		q.commit()
	}
	n.touched = n.touched[:0]
}

// addLanes creates count bounded flit lanes owned by this network's
// batch commit pass.
func (n *Network) addLanes(name string, count, capacity int) []flitQ {
	qs := newFlitQs(name, count, capacity, n.cfg.FlitBytes)
	for i := range qs {
		qs[i].net = n
		n.qs = append(n.qs, &qs[i])
	}
	return qs
}

// link wires switch a's output port out to switch b's input lanes on
// port in, VC for VC. A route walk follows the hop through the lanes'
// switch.
func (n *Network) link(a *Router, out int, b *Router, in int) {
	for v := 0; v < NumVCs; v++ {
		a.outs[out*NumVCs+v] = &b.lanes[in*NumVCs+v]
	}
}

// Config returns the fabric configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// Clock returns the fabric clock domain.
func (n *Network) Clock() *sim.Clock { return n.clk }

// Endpoint returns the endpoint for node, or nil.
func (n *Network) Endpoint(node noctypes.NodeID) *Endpoint {
	if int(node) < len(n.eps) {
		return n.eps[node]
	}
	return nil
}

// Nodes returns attached node IDs in attach order.
func (n *Network) Nodes() []noctypes.NodeID {
	return append([]noctypes.NodeID(nil), n.epOrder...)
}

// Routers returns the fabric's switches.
func (n *Network) Routers() []*Router { return n.routers }

// SetProbe attaches an instrumentation probe (see internal/obs for the
// contract) to the fabric: every switch and endpoint starts emitting
// flit, stall and packet-lifecycle events into it, occupancy samples
// too if the probe reads them (obs.SamplesBuffers), and the NIU engines
// pick it up via Probe for transaction spans. Call it after the
// topology builder returns and before the simulation runs; a nil probe
// (the default) disables instrumentation at the cost of one branch per
// emission site. If the probe wants router names for its reports
// (obs.RouterNamer), it is fed them here.
func (n *Network) SetProbe(p obs.Probe) {
	n.probe, n.sample = p, obs.SamplesBuffers(p)
	if n.sample {
		n.wake.Wake() // a sampling fabric samples every cycle
	}
	for _, r := range n.routers {
		r.probe, r.sample = p, n.sample
	}
	for _, ep := range n.epList {
		ep.probe = p
	}
	if nm, ok := p.(obs.RouterNamer); ok && p != nil {
		names := make([]string, len(n.routers))
		for i, r := range n.routers {
			names[i] = r.Name()
		}
		nm.NameRouters(names)
	}
}

// Probe returns the attached instrumentation probe (nil when disabled).
func (n *Network) Probe() obs.Probe { return n.probe }

// Injected and Ejected return fabric-wide packet counts.
func (n *Network) Injected() uint64 { return n.injected }
func (n *Network) Ejected() uint64  { return n.ejected }

// InFlight reports packets injected but not yet ejected.
func (n *Network) InFlight() int { return int(n.injected - n.ejected) }

// NewPacket returns a packet descriptor from the network's free list
// with a zeroed header and a payload of payloadBytes zero bytes. Paired
// with Recycle it gives traffic generators and adapters the same
// zero-alloc steady state the fabric core has: after warmup every
// send/receive cycle reuses pooled descriptors and payload storage.
func (n *Network) NewPacket(payloadBytes int) *Packet {
	return n.pool.newPacket(payloadBytes)
}

// Recycle returns a packet delivered by Recv (or consumed by TrySend —
// the fabric copies everything it needs during the call) to the
// network's descriptor free list, so a steady-state consumer that
// recycles never allocates packets. The caller must not retain p or
// p.Payload afterwards. Recycling is optional: consumers that keep
// their packets simply leave the pool empty.
func (n *Network) Recycle(p *Packet) {
	n.pool.recycle(p)
}

// TryAcquireLock claims the global legacy-lock token for node. The token
// serializes READEX/LOCK sequences fabric-wide (the AHB arbiter's HMASTLOCK
// semantics transplanted to the NoC); switch-level path reservations do
// the per-link blocking.
func (n *Network) TryAcquireLock(node noctypes.NodeID) bool {
	if !n.cfg.LegacyLock {
		return false
	}
	if n.lockHeld {
		return n.lockOwner == node
	}
	n.lockHeld = true
	n.lockOwner = node
	return true
}

// ReleaseLock releases the token; it panics on a non-owner release
// (a protocol bug, not a runtime condition).
func (n *Network) ReleaseLock(node noctypes.NodeID) {
	if !n.lockHeld || n.lockOwner != node {
		panic(fmt.Sprintf("transport: ReleaseLock by %v, holder %v (held=%v)", node, n.lockOwner, n.lockHeld))
	}
	n.lockHeld = false
}

// LockHolder returns the current token holder, if any.
func (n *Network) LockHolder() (noctypes.NodeID, bool) { return n.lockOwner, n.lockHeld }

// Path returns the switch outputs a packet from src to dst traverses.
// Experiments use it to classify flows as crossing or avoiding a locked
// path.
func (n *Network) Path(src, dst noctypes.NodeID) []LinkID {
	ep := n.Endpoint(src)
	if ep == nil {
		panic(fmt.Sprintf("transport: Path: unknown src %v", src))
	}
	if n.Endpoint(dst) == nil {
		panic(fmt.Sprintf("transport: Path: unknown dst %v", dst))
	}
	var path []LinkID
	n.walk(ep, dst, func(router, port int) {
		path = append(path, LinkID{Router: router, Port: port})
	})
	return path
}

// walk calls hop with each switch output, in order, that a packet from
// src to dst traverses: from each output it steps to the switch its
// downstream lane feeds, and it ends at an ejection buffer. Path and the
// loose engine's route arena both fill from it.
func (n *Network) walk(src *Endpoint, dst noctypes.NodeID, hop func(router, port int)) {
	r := src.router
	for hops := 0; ; hops++ {
		if hops > len(n.routers)+1 {
			panic("transport: Path: routing loop")
		}
		port := r.routeFor(dst)
		hop(r.index, port)
		if r = r.outs[port*NumVCs].sw; r == nil {
			return
		}
	}
}

// Drained reports whether no packets are in flight and all endpoints have
// empty send queues.
func (n *Network) Drained() bool {
	return n.InFlight() == 0 && n.queued == 0 && (n.loose == nil || n.loose.idle())
}

// attach creates and registers an endpoint on router r's port, with
// the next ejection buffer and send queue newNetwork made.
func (n *Network) attach(node noctypes.NodeID, r *Router, port int) {
	if n.Endpoint(node) != nil {
		panic("transport: node " + node.String() + " attached twice")
	}
	i := len(n.epList)
	ej := &n.ejs[i]
	for v := 0; v < NumVCs; v++ {
		r.outs[port*NumVCs+v] = ej
	}
	ep := &Endpoint{
		net:    n,
		node:   node,
		router: r,
		port:   port,
		sendQ:  &n.sends[i],
		ej:     ej,
		recvQ:  sim.NewPipe[*Packet](n.clk, "recv", 64),
		idOrd:  i,
	}
	n.eps[node] = ep
	n.epOrder = append(n.epOrder, node)
	n.epList = append(n.epList, ep)
}

// Endpoint is a node's attachment point: it serializes packets into flit
// slots on the send side and reassembles flits into packets on the
// receive side, at one flit per cycle in each direction. TrySend writes
// header and payload bytes straight into staged slots of the send
// queue, so a send never allocates.
type Endpoint struct {
	net    *Network
	node   noctypes.NodeID
	router *Router
	port   int

	sendQ   *flitQ // staged by TrySend this cycle, committed at the edge, injecting one per cycle
	pending int    // packets not yet fully injected

	ej      *flitQ
	reasm   Reassembler
	rxTimes pktTimes // the packet in reassembly: its head flit's times
	recvQ   *sim.Pipe[*Packet]

	hdrScratch [HeaderBytes]byte // header serialization scratch, reused per TrySend

	probe obs.Probe // set by Network.SetProbe; nil = disabled

	idOrd int // attach order: indexes the loose engine's per-endpoint state
}

// pktTimes is a packet's send-side lifecycle, carried by its head flit
// (or its analytic delivery event) and resolved into a TransitRecord at
// ejection.
type pktTimes struct {
	queued   int64 // cycle TrySend accepted the packet
	injected int64 // cycle the head flit entered the fabric
}

// ID returns the endpoint's node ID.
func (ep *Endpoint) ID() noctypes.NodeID { return ep.node }

// Network returns the fabric this endpoint is attached to (for Recycle
// and configuration lookups).
func (ep *Endpoint) Network() *Network { return ep.net }

// CanSend reports whether TrySend would accept a packet now.
func (ep *Endpoint) CanSend() bool { return ep.pending < ep.net.cfg.MaxPendingPkts }

// TrySend queues a packet for injection. It returns false under
// backpressure. It panics if a fabric that buffers whole packets (see
// WholePacketDepth) is given a packet larger than its lanes (a
// configuration error).
//
// The fabric retains no reference to p or p.Payload, so the caller may
// reuse (or Recycle) both immediately: the flit path serializes the
// header and payload bytes into flit slots during the call, and the
// analytic path of a hybrid fabric copies the packet.
func (ep *Endpoint) TrySend(p *Packet) bool {
	if !ep.CanSend() {
		return false
	}
	n := ep.net
	n.nextPktID++
	p.ID = n.nextPktID
	if p.Src != ep.node {
		panic(fmt.Sprintf("transport: %v sending packet with Src=%v", ep.node, p.Src))
	}
	p.PayloadLen = uint32(len(p.Payload))
	flits := FlitCount(HeaderBytes+len(p.Payload), n.cfg.FlitBytes)
	if (n.cfg.Mode == StoreAndForward || n.cutThrough) && flits > n.cfg.BufDepth {
		panic(fmt.Sprintf("transport: packet of %d flits exceeds BufDepth %d (whole-packet buffering required)", flits, n.cfg.BufDepth))
	}
	if le := n.loose; le != nil && le.admits(ep, p) {
		le.send(ep, p, flits)
	} else {
		if le != nil {
			// Hot route (or lock traffic): this packet rides the
			// cycle-accurate flit path.
			n.looseCycleActive++
		}
		ep.serialize(p, flits)
	}
	ep.pending++
	if ep.probe != nil {
		ep.probe.Event(obs.Event{
			Kind: obs.KindQueued, Cycle: n.clk.Cycle(),
			PktID: p.ID, Src: p.Src, Dst: p.Dst, Val: flits,
		})
	}
	return true
}

// serialize writes p's header and payload bytes straight into n staged
// send-queue slots: the flit path's half of TrySend. Every slot carries
// the packet's header; its times are read on the head only.
func (ep *Endpoint) serialize(p *Packet, n int) {
	fb := ep.net.cfg.FlitBytes
	wireLen := HeaderBytes + len(p.Payload)
	vc := VCNormal
	if p.Locked {
		vc = VCLocked
	}
	hdr := AppendHeader(ep.hdrScratch[:0], &p.Header)
	tm := pktTimes{queued: ep.net.clk.Cycle()}
	q := ep.sendQ
	for i := 0; i < n; i++ {
		lo := i * fb
		hi := lo + fb
		if hi > wireLen {
			hi = wireLen
		}
		var fl uint8
		if i == 0 {
			fl |= slotHead
		}
		if i == n-1 {
			fl |= slotTail
		}
		si := q.stagePush()
		q.slots[si] = flitSlot{pktID: p.ID, hdr: p.Header, times: tm, dlen: uint16(hi - lo), flags: fl, vc: vc}
		dst := q.payload(si)
		// The flit's bytes straddle the header/payload boundary of the
		// wire image; copy each segment from its source.
		off := 0
		if lo < HeaderBytes {
			he := hi
			if he > HeaderBytes {
				he = HeaderBytes
			}
			off = copy(dst, hdr[lo:he])
		}
		if hi > HeaderBytes {
			copy(dst[off:], p.Payload[lo+off-HeaderBytes:hi-HeaderBytes])
		}
	}
	ep.net.queued++
	ep.net.stage()
	ep.net.wake.Wake()
}

// inject counts a packet's head flit entering the fabric on cycle.
// Both paths call it: the flit path when the head leaves the send
// queue, the analytic path at the cycle its model puts that moment.
func (ep *Endpoint) inject(cycle int64, pktID uint64, dst noctypes.NodeID) {
	ep.net.injected++
	if ep.probe != nil {
		ep.probe.Event(obs.Event{
			Kind: obs.KindInject, Cycle: cycle,
			PktID: pktID, Src: ep.node, Dst: dst,
		})
	}
}

// deliver hands a whole packet to the receive queue on cycle and
// reports its journey; tm holds its send-side cycles. Both paths call
// it.
func (ep *Endpoint) deliver(pkt *Packet, cycle int64, hops int, tm pktTimes) {
	ep.net.ejected++
	ep.recvQ.Push(pkt)
	if ep.probe != nil {
		ep.probe.Event(obs.Event{
			Kind: obs.KindEject, Cycle: cycle,
			PktID: pkt.ID, Src: pkt.Src, Dst: ep.node, Val: hops,
		})
	}
	if ep.net.OnTransit != nil {
		ep.net.OnTransit(TransitRecord{
			Pkt:         pkt,
			QueuedCycle: tm.queued,
			InjectCycle: tm.injected,
			EjectCycle:  cycle,
			Hops:        hops,
		})
	}
}

// SetConsumer names the component that receives from this endpoint:
// every delivery wakes it (see sim.Idler).
func (ep *Endpoint) SetConsumer(w sim.Waker) { ep.recvQ.SetConsumer(w) }

// Received returns the number of delivered packets waiting for Recv.
func (ep *Endpoint) Received() int { return ep.recvQ.Len() }

// Recv pops the next received packet, if any. The packet belongs to the
// caller; returning it with Network.Recycle when done keeps the fabric
// allocation-free.
func (ep *Endpoint) Recv() (*Packet, bool) { return ep.recvQ.Pop() }

// RecvAll appends every currently received packet to dst and returns
// the extended slice — the batch form of Recv (one call per edge
// instead of one per packet) for consumers that always drain their
// ejection port.
func (ep *Endpoint) RecvAll(dst []*Packet) []*Packet {
	w := ep.recvQ.Window()
	if len(w) == 0 {
		return dst
	}
	dst = append(dst, w...)
	ep.recvQ.Consume(len(w))
	return dst
}

// eval runs one endpoint cycle — inject one flit, eject one flit — from
// the network's fabric tick.
func (ep *Endpoint) eval(cycle int64) {
	// Injection.
	q := ep.sendQ
	if q.clen > 0 {
		hs := q.slot(0)
		s := &q.slots[hs]
		lane := &ep.router.lanes[ep.port*NumVCs+int(s.vc)]
		if lane.canPush(1) {
			si := lane.stageCopy(q, hs)
			if s.flags&slotHead != 0 {
				lane.slots[si].times.injected = cycle
				ep.inject(cycle, s.pktID, s.hdr.Dst)
			}
			if s.flags&slotTail != 0 {
				ep.pending--
				ep.net.queued--
			}
			q.pop()
		}
	}
	// Ejection: only when the receive queue has room (backpressure).
	if ep.recvQ.CanPush(1) && ep.ej.clen > 0 {
		hs := ep.ej.slot(0)
		s := &ep.ej.slots[hs]
		head := s.flags&slotHead != 0
		if head {
			ep.rxTimes = s.times
		}
		pkt, err := ep.reasm.feed(s.pktID, head, s.flags&slotTail != 0, ep.ej.payload(hs), &ep.net.pool)
		hops := s.hops
		ep.ej.pop()
		if err != nil {
			panic(fmt.Sprintf("transport: %v: %v", ep.node, err))
		}
		if pkt != nil {
			if ep.net.loose != nil {
				ep.net.looseCycleActive--
			}
			ep.deliver(pkt, cycle, int(hops), ep.rxTimes)
		}
	}
}
