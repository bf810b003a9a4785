package traffic

import (
	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// txnUserRead marks a request packet as a read in the transport User
// byte (carried, never interpreted by the fabric).
const txnUserRead uint8 = 1 << 0

// txn is one in-flight request/response transaction. Its record goes
// back to its source's free list when it completes.
type txn struct {
	tag      noctypes.Tag
	dst      int
	read     bool
	urgent   bool
	genCycle int64
	measured bool
}

// source is the per-node workload engine: it generates transactions
// (open- or closed-loop), injects request packets, reflects requests
// arriving from other nodes into responses, and completes its own
// transactions when responses return.
//
// It sleeps while nothing waits to be injected (sim.Idler). An open-loop
// source makes its Bool(Rate) draws ahead, in cycle order, up to the
// next success, and arms a WakeAt for that cycle: the draws are the ones
// a per-cycle draw would make, in the same order on the same stream, so
// every seeded result stays the same.
type source struct {
	r   *rig
	idx int
	ep  *transport.Endpoint
	rng *sim.RNG
	ch  *chooser
	w   sim.Waker

	drawer // open loop: the Bool(Rate) draws, made ahead up to the next success

	q           *sim.Queue[*txn]              // generated, awaiting injection
	replyQ      *sim.Queue[*transport.Packet] // reflector responses awaiting injection
	outstanding map[noctypes.Tag]*txn
	nextTag     uint32
	tagSpace    uint32 // number of distinct tags (tests shrink it)
	inflight    int
	free        []*txn // completed transaction records, for reuse

	rxBuf []*transport.Packet // receive-drain scratch, reused per cycle
}

func newSource(r *rig, idx int, rng *sim.RNG) *source {
	s := &source{
		r:           r,
		idx:         idx,
		ep:          r.net.Endpoint(nodeID(idx)),
		rng:         rng,
		q:           sim.NewQueue[*txn](0),
		replyQ:      sim.NewQueue[*transport.Packet](0),
		outstanding: make(map[noctypes.Tag]*txn),
		tagSpace:    1 << 16,
	}
	s.ch = newChooser(r.cfg, idx, rng.Fork("dest"))
	s.w = r.clk.Register(s)
	s.w.Consumes(s.ep)
	if !r.cfg.ClosedLoop {
		s.drawAhead()
	}
	return s
}

// drawAhead makes the open-loop draws of the cycles after the last one
// drawn up to the next success or measEnd, the rig's last generating
// cycle.
func (s *source) drawAhead() { s.draw(s.rng, s.r.cfg.Rate, 0, s.r.measEnd, s.w) }

// Idle implements sim.Idler: nothing waits to be injected. A delivery
// wakes the source through its endpoint, and an open-loop source's next
// generation through the WakeAt drawAhead armed. A closed-loop source
// sleeps with a full window: only the response that completes one of
// its transactions, a delivery, frees a slot.
func (s *source) Idle() bool { return s.q.Len() == 0 && s.replyQ.Len() == 0 }

// backlog counts transactions generated but not completed.
func (s *source) backlog() int { return s.q.Len() + s.inflight }

func (s *source) generate(cycle int64) {
	cfg := s.r.cfg
	var t *txn
	if n := len(s.free); n > 0 {
		t, s.free = s.free[n-1], s.free[:n-1]
	} else {
		t = new(txn)
	}
	*t = txn{
		dst:      s.ch.next(),
		read:     s.rng.Bool(cfg.ReadFrac),
		urgent:   cfg.UrgentFrac > 0 && s.rng.Bool(cfg.UrgentFrac),
		genCycle: cycle,
		measured: s.r.measuring,
	}
	s.q.Push(t)
	if t.measured {
		s.r.col.generated++
	}
}

// freeTag allocates the next transaction tag at injection time. Tags
// identify outstanding transactions on the wire, and the tag counter
// wraps after tagSpace generations — routine in saturated open-loop
// runs — so a fresh tag can still belong to an in-flight transaction.
// Overwriting that outstanding entry would orphan it (the first
// response deletes the shared entry; the second finds nothing, leaking
// inflight and corrupting Incomplete), so busy tags are skipped; skips
// that precede a successful allocation are reported as
// Result.TagCollisions. ok is false only when every tag is outstanding
// — the caller retries next cycle, and that fruitless rescan is not
// re-counted (it would tally tagSpace per stalled cycle and turn the
// metric into a stall-duration counter).
func (s *source) freeTag() (noctypes.Tag, bool) {
	var skipped uint64
	for range s.tagSpace {
		tag := noctypes.Tag(s.nextTag)
		s.nextTag = (s.nextTag + 1) % s.tagSpace
		if _, busy := s.outstanding[tag]; !busy {
			s.r.col.tagCollisions += skipped
			return tag, true
		}
		skipped++
	}
	return 0, false
}

// payloadFor sizes the two packet directions: the data-bearing leg
// carries PayloadBytes, the other carries ackBytes of metadata.
func payloadFor(read, isRsp bool, dataBytes int) int {
	if read == isRsp {
		return dataBytes
	}
	return ackBytes
}

// requestPacket builds a request from the network's packet pool; the
// caller recycles it after TrySend (the fabric copies during the call).
func (s *source) requestPacket(t *txn) *transport.Packet {
	prio := noctypes.PrioDefault
	if t.urgent {
		prio = noctypes.PrioUrgent
	}
	var user uint8
	if t.read {
		user |= txnUserRead
	}
	p := s.r.net.NewPacket(payloadFor(t.read, false, s.r.cfg.PayloadBytes))
	p.Header = transport.Header{
		Kind:     transport.KindReq,
		Dst:      nodeID(t.dst),
		Src:      nodeID(s.idx),
		Tag:      t.tag,
		Priority: prio,
		User:     user,
	}
	return p
}

// reflect turns a received request into the matching response, drawn
// from the network's packet pool (recycled after injection).
func (s *source) reflect(req *transport.Packet) *transport.Packet {
	p := s.r.net.NewPacket(payloadFor(req.User&txnUserRead != 0, true, s.r.cfg.PayloadBytes))
	p.Header = transport.Header{
		Kind:     transport.KindRsp,
		Dst:      req.Src,
		Src:      nodeID(s.idx),
		Tag:      req.Tag,
		Priority: req.Priority,
		User:     req.User,
	}
	return p
}

func (s *source) complete(t *txn, cycle int64) {
	delete(s.outstanding, t.tag)
	s.inflight--
	if s.r.measuring {
		s.r.col.completed++
	}
	measured, dst, lat := t.measured, t.dst, cycle-t.genCycle
	s.free = append(s.free, t) // its last read was the line above
	if !measured {
		return
	}
	col := &s.r.col
	col.measDone++
	col.agg.Record(lat)
	col.hist.Record(lat)
	col.flows[s.idx].add(dst, lat)
}

// Eval implements sim.Clocked: receive, generate, inject.
func (s *source) Eval(cycle int64) {
	// Receive: always drain the endpoint so the fabric never backs up
	// into the ejection port (reflector replies wait in replyQ instead).
	// The batch drain is one call per edge, and every delivered packet
	// is consumed in place and recycled, keeping steady state heap-free.
	s.rxBuf = s.ep.RecvAll(s.rxBuf[:0])
	for _, pkt := range s.rxBuf {
		if pkt.Kind == transport.KindReq {
			s.replyQ.Push(s.reflect(pkt))
		} else if t, ok := s.outstanding[pkt.Tag]; ok {
			s.complete(t, cycle)
		}
		s.r.net.Recycle(pkt)
	}

	// Generate, on the rig's generating cycles 1..measEnd.
	if s.r.cfg.ClosedLoop {
		if cycle <= s.r.measEnd {
			for s.backlog() < s.r.cfg.Window {
				s.generate(cycle)
			}
		}
	} else if cycle == s.due {
		s.generate(cycle)
		s.drawAhead()
	}

	// Inject: responses first (they complete someone else's
	// transaction), then our own requests, as long as the endpoint
	// accepts packets this cycle.
	for {
		rsp, ok := s.replyQ.Peek()
		if !ok || !s.ep.TrySend(rsp) {
			break
		}
		s.replyQ.Pop()
		s.r.net.Recycle(rsp)
	}
	for {
		t, ok := s.q.Peek()
		if !ok {
			break
		}
		// CanSend gates packet construction: under backpressure a blocked
		// source would otherwise allocate a throwaway packet every cycle.
		if !s.ep.CanSend() {
			if s.r.measuring {
				s.r.col.backpressure++
				s.r.mBackpressure.Inc()
			}
			break
		}
		// Tags are assigned here, not at generation: only injected
		// transactions occupy tag space, so a free tag is exactly one
		// with no outstanding transaction.
		tag, ok := s.freeTag()
		if !ok {
			break // every tag outstanding; retry next cycle
		}
		t.tag = tag
		req := s.requestPacket(t)
		sent := s.ep.TrySend(req)
		s.r.net.Recycle(req)
		if !sent {
			break
		}
		s.q.Pop()
		s.outstanding[t.tag] = t
		s.inflight++
		if s.r.measuring {
			s.r.col.injected++
		}
	}
}
