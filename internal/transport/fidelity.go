package transport

import (
	"fmt"
	"strings"
)

// Fidelity selects how much of the fabric is simulated flit-by-flit.
//
// The cycle-accurate path prices every flit of every packet through
// every switch. Most of that work is wasted on uncongested links, where
// the latency of a packet is a closed-form function of its length and
// path (the approximately-timed observation of the SystemC TLM
// literature the paper sits in). Hybrid fidelity exploits that: packets
// whose route is cold are priced by an analytic FIFO-server model and
// delivered by a timer wheel, never touching a switch.
type Fidelity uint8

const (
	// FidelityCycle is the default: every packet takes the
	// cycle-accurate flit path. Results are byte-identical to fabrics
	// built before the knob existed (the golden tests pin this).
	FidelityCycle Fidelity = iota

	// FidelityHybrid prices packets analytically while every link on
	// their route stays below looseThreshold utilization, and falls
	// back to the cycle-accurate path for packets whose route crosses a
	// hot link, until the link cools (looseHysteresis). Exact at zero
	// contention; bounded error under load (experiment E16 measures
	// the bounds).
	FidelityHybrid
)

// String renders the fidelity level in its scenario-schema spelling.
func (f Fidelity) String() string {
	switch f {
	case FidelityHybrid:
		return "hybrid"
	default:
		return "cycle"
	}
}

// ParseFidelity resolves a fidelity name. The empty string is the
// default (cycle-accurate) level.
func ParseFidelity(s string) (Fidelity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "cycle":
		return FidelityCycle, nil
	case "hybrid":
		return FidelityHybrid, nil
	}
	return 0, fmt.Errorf("unknown fidelity %q (want cycle|hybrid)", s)
}

// Hybrid fallback tuning.
const (
	// looseThreshold is the per-link utilization (flits moved per
	// cycle over one epoch) above which a link is hot and hybrid sends
	// crossing it fall back to the flit path.
	looseThreshold = 0.35
	// looseHysteresis scales the threshold for cooling: a hot link
	// goes cold only when utilization drops below
	// threshold*hysteresis, so a link oscillating near the threshold
	// does not flap between paths every epoch.
	looseHysteresis = 0.5
	// looseWindow is the utilization epoch length in cycles.
	looseWindow = 256
)

// FidelityStats counts how the loose engine classified traffic.
type FidelityStats struct {
	AnalyticPkts uint64 // packets priced by the analytic model
	FallbackPkts uint64 // hybrid sends routed to the flit path by a hot link
	HotLinks     int    // links currently marked hot
}

// FidelityStats returns the loose engine's counters; zero for a
// cycle-accurate fabric.
func (n *Network) FidelityStats() FidelityStats {
	if n.loose == nil {
		return FidelityStats{}
	}
	return FidelityStats{
		AnalyticPkts: n.loose.analyticPkts,
		FallbackPkts: n.loose.fallbackPkts,
		HotLinks:     n.loose.hotLinks,
	}
}

// looseEvent is one scheduled action of the analytic path. The kinds
// mirror the flit path's externally visible moments so that, at zero
// contention, an analytic packet is indistinguishable from a simulated
// one: the head leaving the send queue (inject), the tail leaving the
// send queue (the send-window credit returning), and the tail finishing
// reassembly (delivery). Events live in the engine's slab, each linked
// to the next event due the same cycle.
type looseEvent struct {
	kind uint8
	next int32     // slab slot of the next event due the same cycle, -1 for none
	ep   *Endpoint // source (evInject, evTailOut) or destination (evDeliver)
	pkt  *Packet   // evInject, evDeliver: the fabric-owned copy to hand to recvQ

	// evDeliver: TransitRecord fields resolved at delivery.
	times pktTimes
	hops  int
}

const (
	evInject uint8 = iota
	evTailOut
	evDeliver
)

// dueList is the events due at one cycle, in the order they were
// scheduled: the slab slots of the first and the last, -1 when empty.
type dueList struct{ first, last int32 }

// routeSpan is one source→destination route's [lo, hi) range in the
// route arena; hi == 0 until the route is first walked (every route
// crosses at least one switch output).
type routeSpan struct{ lo, hi int32 }

// looseEngine is the loosely-timed half of a hybrid fabric. Every
// shared resource a packet serializes on — the source injection port,
// each switch output link on its route, the destination ejection port —
// is modeled as a FIFO server with a "next free" cycle. A send walks
// its route through those servers:
//
//	t0   = max(now+1, srcFree)          head leaves the send queue
//	ti   = max(t(i-1)+step, linkFree)   head crosses link i
//	feed = max(th+1,  dstFree)          first flit reaches reassembly
//	eject = feed + flits - 1            tail finishes reassembly
//
// with step = 1 for wormhole (the head advances one hop per cycle) and
// step = flits for store-and-forward (a switch buffers the whole packet
// before competing for the next link). Each server then blocks for the
// packet's serialization time (flits cycles). At zero contention every
// max resolves to its first argument and the model reproduces the
// cycle-accurate latency exactly (FuzzLooseLatencyExact pins this);
// under load the servers degrade into a FIFO queueing estimate.
//
// The exactness domain is zero contention: spaced packets anywhere,
// and back-to-back same-route trains while buffers never squeeze. A
// store-and-forward train whose consecutive packets overflow one lane
// (prev flits + next flits > BufDepth) stalls on whole-packet
// admission — an initiation-interval of flits + (2*flits - BufDepth)
// per link for equal sizes — which is genuine queueing and is covered
// by the hybrid error-bound harness (experiment E16), not this model.
//
// Hybrid fallback: per-link utilization is accumulated per epoch
// (looseWindow cycles) from both analytic traffic (offered flits) and
// cycle-path traffic (RouterStats.OutBusy deltas). A link above
// looseThreshold goes hot; hybrid sends whose route crosses a hot link
// take the flit path until the link cools below
// looseThreshold*looseHysteresis.
type looseEngine struct {
	n *Network

	// Topology-derived state, built on first send (the engine is
	// created before the topology builder adds switches).
	ready    bool
	linkBase []int32 // per-router base into the flat link arrays
	linkFree []int64 // FIFO server: next cycle each link is free
	linkLoad []int64 // analytic flits offered this epoch, per link
	lastBusy []uint64
	hot      []bool
	hotLinks int
	epFree   []int64 // per endpoint (attach order): injection server
	ejFree   []int64 // per endpoint (attach order): ejection server
	epochEnd int64

	// Routes as flat link indices, walked once per endpoint pair on
	// first use and kept back to back in arena: routes[s*E+d] spans the
	// route from the endpoint attached s-th to the one attached d-th,
	// of E endpoints. Routing tables are static, so one walk suffices.
	arena  []int32
	routes []routeSpan

	// The event calendar: wheel[c mod len(wheel)] lists the events due
	// at cycle c, for every c from base, the first cycle not yet fired,
	// to base+len(wheel)-1. Events live in slab, whose vacated slots
	// wait in free for reuse.
	wheel    []dueList
	base     int64
	queued   int // events in the calendar
	slab     []looseEvent
	free     []int32
	inFlight int // analytic packets accepted, not yet delivered

	analyticPkts uint64
	fallbackPkts uint64
}

// init sizes the per-resource server arrays against the finished
// topology. Deferred to the first send because the engine is created
// before the builder attaches switches and endpoints.
func (le *looseEngine) init() {
	n := le.n
	le.linkBase = make([]int32, len(n.routers)+1)
	base := int32(0)
	for i, r := range n.routers {
		le.linkBase[i] = base
		base += int32(r.Ports())
	}
	le.linkBase[len(n.routers)] = base
	le.linkFree = make([]int64, base)
	le.linkLoad = make([]int64, base)
	le.lastBusy = make([]uint64, base)
	le.hot = make([]bool, base)
	le.epFree = make([]int64, len(n.epList))
	le.ejFree = make([]int64, len(n.epList))
	le.routes = make([]routeSpan, len(n.epList)*len(n.epList))
	le.base = n.clk.Cycle() + 1 // nothing can fall due earlier
	le.epochEnd = n.clk.Cycle() + looseWindow
	le.ready = true
}

// pathFor returns the route from src to dst as flat link indices,
// walking it into the arena on first use.
func (le *looseEngine) pathFor(src, dst *Endpoint) []int32 {
	sp := &le.routes[src.idOrd*len(le.n.epList)+dst.idOrd]
	if sp.hi == 0 {
		sp.lo = int32(len(le.arena))
		le.n.walk(src, dst.node, func(router, port int) {
			le.arena = append(le.arena, le.linkBase[router]+int32(port))
		})
		sp.hi = int32(len(le.arena))
	}
	return le.arena[sp.lo:sp.hi]
}

// dstOf returns the endpoint p is addressed to; an unknown destination
// is a sender bug and panics.
func (le *looseEngine) dstOf(ep *Endpoint, p *Packet) *Endpoint {
	dst := le.n.Endpoint(p.Dst)
	if dst == nil {
		panic(fmt.Sprintf("transport: %v sending to unknown node %v", ep.node, p.Dst))
	}
	return dst
}

// admits reports whether this send may be priced analytically. Legacy
// lock sequences interact with switch state (path reservations) the
// model cannot see, so lock-capable fabrics stay entirely on the flit
// path; otherwise the route must be cold.
func (le *looseEngine) admits(ep *Endpoint, p *Packet) bool {
	if le.n.cfg.LegacyLock || p.Locked || p.Unlock {
		return false
	}
	if !le.ready {
		le.init()
	}
	if le.hotLinks == 0 {
		return true
	}
	for _, li := range le.pathFor(ep, le.dstOf(ep, p)) {
		if le.hot[li] {
			le.fallbackPkts++
			return false
		}
	}
	return true
}

// send prices a packet of nf flits, which TrySend accepted and admits
// let through, over the FIFO servers and schedules its externally
// visible moments.
func (le *looseEngine) send(ep *Endpoint, p *Packet, nf int) {
	n := le.n
	now := n.clk.Cycle()
	dst := le.dstOf(ep, p)
	links := le.pathFor(ep, dst)
	flits := int64(nf)

	// Source injection port: one flit per cycle out of the send queue.
	t := now + 1
	if f := le.epFree[ep.idOrd]; f > t {
		t = f
	}
	le.epFree[ep.idOrd] = t + flits
	inject := t

	// Route links. Wormhole heads advance one hop per cycle;
	// store-and-forward buffers the whole packet per hop.
	step := int64(1)
	if n.cfg.Mode == StoreAndForward {
		step = flits
	}
	for _, li := range links {
		nt := t + step
		if f := le.linkFree[li]; f > nt {
			nt = f
		}
		le.linkFree[li] = nt + flits
		le.linkLoad[li] += flits
		t = nt
	}

	// Destination ejection port: reassembly consumes one flit per cycle.
	feed := t + 1
	if f := le.ejFree[dst.idOrd]; f > feed {
		feed = f
	}
	le.ejFree[dst.idOrd] = feed + flits
	eject := feed + flits - 1

	// The fabric owns its copy from the moment of acceptance — the
	// caller may reuse or Recycle p immediately, same contract as the
	// flit path (which serializes into flit slots during the call).
	cl := n.NewPacket(len(p.Payload))
	payload := cl.Payload
	cl.Header = p.Header
	cl.ID = p.ID
	cl.Payload = payload
	copy(cl.Payload, p.Payload)

	le.inFlight++
	le.analyticPkts++
	le.push(inject, looseEvent{kind: evInject, ep: ep, pkt: cl})
	le.push(inject+flits-1, looseEvent{kind: evTailOut, ep: ep})
	le.push(eject, looseEvent{kind: evDeliver, ep: dst, pkt: cl,
		times: pktTimes{queued: now, injected: inject}, hops: len(links)})
}

// tick fires every due event and rolls the utilization epoch. Runs at
// the head of the fabric's Eval, before switches and endpoints — the
// same intra-cycle position the flit path's corresponding actions
// occupy, so send-window credits and deliveries are visible to traffic
// sources on exactly the cycle the flit path would make them visible.
func (le *looseEngine) tick(cycle int64) {
	if !le.ready {
		return
	}
	for {
		slot, due, ok := le.next(cycle)
		if !ok {
			break
		}
		ev := le.slab[slot] // a copy: the callbacks below may grow the slab
		switch ev.kind {
		case evInject:
			ev.ep.inject(due, ev.pkt.ID, ev.pkt.Dst)
		case evTailOut:
			ev.ep.pending--
		case evDeliver:
			dst := ev.ep
			if !dst.recvQ.CanPush(1) {
				// Receiver backpressure: retry next cycle, behind the
				// events already due then.
				le.schedule(cycle+1, slot)
				continue
			}
			le.inFlight--
			dst.deliver(ev.pkt, cycle, ev.hops, ev.times)
		}
		le.slab[slot] = looseEvent{}
		le.free = append(le.free, slot)
	}
	if cycle >= le.epochEnd {
		le.rollEpoch(cycle)
	}
}

// rollEpoch recomputes per-link utilization over the closing epoch and
// updates the hot set with hysteresis. Cycle-path flits are read from
// the switches' OutBusy counters; analytic flits were accumulated at
// send time (offered load on the links the model kept dark).
func (le *looseEngine) rollEpoch(cycle int64) {
	idx := 0
	for _, r := range le.n.routers {
		busyN := len(r.stats.OutBusy)
		for p := 0; p < busyN; p++ {
			busy := r.stats.OutBusy[p]
			flits := le.linkLoad[idx] + int64(busy-le.lastBusy[idx])
			util := float64(flits) / looseWindow
			if le.hot[idx] {
				if util < looseThreshold*looseHysteresis {
					le.hot[idx] = false
					le.hotLinks--
				}
			} else if util > looseThreshold {
				le.hot[idx] = true
				le.hotLinks++
			}
			le.lastBusy[idx] = busy
			le.linkLoad[idx] = 0
			idx++
		}
	}
	le.epochEnd = cycle + looseWindow
}

// idle reports whether the engine holds no undelivered work.
func (le *looseEngine) idle() bool {
	return le.inFlight == 0 && le.queued == 0
}

// ---- the event calendar ----
//
// Events fire by cycle and, within a cycle, in the order they were
// scheduled. Every event is scheduled for a cycle after the current
// one (a send's inject is at least now+1, a retry is at cycle+1), so a
// per-cycle FIFO gives that order with O(1) work per event; the wheel
// only has to span the furthest cycle scheduled ahead, and doubles
// when a schedule reaches past it.

// push puts ev in a free slab slot and schedules it at cycle.
func (le *looseEngine) push(cycle int64, ev looseEvent) {
	var slot int32
	if n := len(le.free); n > 0 {
		slot = le.free[n-1]
		le.free = le.free[:n-1]
	} else {
		slot = int32(len(le.slab))
		le.slab = append(le.slab, looseEvent{})
	}
	le.slab[slot] = ev
	le.schedule(cycle, slot)
}

// schedule queues the event in slot at cycle, behind every event
// already due then.
func (le *looseEngine) schedule(cycle int64, slot int32) {
	if cycle < le.base {
		panic(fmt.Sprintf("transport: loose event scheduled for cycle %d, already fired up to %d", cycle, le.base-1))
	}
	for cycle-le.base >= int64(len(le.wheel)) {
		le.growWheel()
	}
	le.slab[slot].next = -1
	l := &le.wheel[cycle&int64(len(le.wheel)-1)]
	if l.last < 0 {
		l.first = slot
	} else {
		le.slab[l.last].next = slot
	}
	l.last = slot
	le.queued++
}

// next removes the earliest event due at or before cycle and returns
// its slot and due cycle; ok is false when none is due. The slot stays
// in use until the caller frees it.
func (le *looseEngine) next(cycle int64) (slot int32, due int64, ok bool) {
	for le.queued > 0 && le.base <= cycle {
		l := &le.wheel[le.base&int64(len(le.wheel)-1)]
		if l.first < 0 {
			le.base++
			continue
		}
		slot = l.first
		if l.first = le.slab[slot].next; l.first < 0 {
			l.last = -1
		}
		le.queued--
		return slot, le.base, true
	}
	if le.base <= cycle {
		le.base = cycle + 1
	}
	return 0, 0, false
}

// growWheel doubles the wheel, keeping each pending cycle's list.
func (le *looseEngine) growWheel() {
	w := make([]dueList, max(2*len(le.wheel), 64))
	for i := range w {
		w[i] = dueList{-1, -1}
	}
	for c := le.base; c < le.base+int64(len(le.wheel)); c++ {
		w[c&int64(len(w)-1)] = le.wheel[c&int64(len(le.wheel)-1)]
	}
	le.wheel = w
}
