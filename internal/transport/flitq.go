package transport

import "fmt"

// This file is the flit store behind the fabric hot path. The exported
// Flit struct remains the package's view type — NIU adapters, obs
// probes, phys.Link and the tests all keep seeing flits — but inside
// the fabric a flit is a pointer-free flitSlot in a ring plus its
// payload bytes in a byte block beside it, so moving a flit across a
// link is one struct copy and one byte copy with no GC write barriers
// and no per-flit allocation. Payload bytes travel by value (stride
// bytes per slot) instead of aliasing a heap-allocated wire buffer,
// which is what lets a warmed-up fabric run without touching the heap
// at all.

// Flit slot flag bits (Flit.Head and Flit.Tail).
const (
	slotHead uint8 = 1 << 0
	slotTail uint8 = 1 << 1
)

// flitSlot is one flit in a store; its payload bytes live in the
// store's data block. Every flit of a packet carries the packet's
// header, so a switch reads a packet's lock flags from the tail it
// forwards; times is meaningful only on the head.
type flitSlot struct {
	pktID uint64
	hdr   Header
	times pktTimes // the packet's queued and injected cycles, for its TransitRecord
	dlen  uint16
	flags uint8
	vc    uint8
	hops  uint8
}

// flitQ is a flit FIFO of flitSlots with sim.Pipe register semantics:
// values staged during a cycle become consumable at the next cycle, and
// a slot freed by a pop cannot be refilled until the next cycle
// (one-cycle credit turnaround via the startLen snapshot). It is not on
// the clock's commit list itself: its first stagePush or pop of an edge
// puts it on the owning Network's, which commits the lanes on it in one
// batch pass at the edge. A lane nothing touched has nothing to commit.
//
// Committed slots live in a power-of-two ring [head, head+clen); slots
// staged this cycle are written in place directly behind them, at
// [head+clen, head+clen+pend). That position is stable within the
// cycle — a pop moves head forward and clen down by one, leaving
// head+clen fixed — so commit publishes staged slots by just extending
// clen: no second copy, and an idle lane's commit is two integer
// stores. Consumers never index past clen, which is what keeps staged
// data invisible until the edge. A bounded queue (router lanes,
// ejection buffers) refuses pushes past capacity, and capacity never
// exceeds the ring size, so in-place staging cannot overrun; an
// unbounded one (endpoint send queues) grows instead.
type flitQ struct {
	name      string
	capacity  int // credit limit; also the logical depth reported to CanPush
	stride    int // payload bytes per slot (the fabric's flit width)
	unbounded bool

	slots []flitSlot // the ring
	data  []byte     // slot i's payload bytes at data[i*stride:]
	mask  int        // len(slots) - 1, power of two
	head  int        // ring index of the oldest committed slot
	clen  int        // committed slot count
	pend  int        // staged slot count, occupying [head+clen, head+clen+pend)

	// startLen is the committed length at the start of the cycle, before
	// any pops: push credit checks use it so results cannot depend on
	// Eval order within a cycle (same rule as sim.Pipe).
	startLen int

	// occ, for a switch input lane, is the word of the owning router's
	// occupancy mask that holds this lane's bit: set while the lane
	// holds a committed slot. nil for every other queue.
	occ *uint64
	bit uint64

	// sw is the switch a switch input lane feeds, nil for an ejection
	// buffer or a send queue: a route walk follows an output's
	// downstream lane to the next switch.
	sw *Router

	// net is the owning network; listed records that the queue is on
	// its commit list (Network.touched) for this edge.
	net    *Network
	listed bool
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newFlitQs creates count bounded flit queues of one capacity (a
// switch's input lanes, a fabric's ejection buffers or send queues).
// The queues share one allocation, their rings another and their
// payload bytes a third.
func newFlitQs(name string, count, capacity, stride int) []flitQ {
	if capacity <= 0 {
		panic(fmt.Sprintf("transport: flit queue %q: capacity must be positive, got %d", name, capacity))
	}
	if stride <= 0 {
		panic(fmt.Sprintf("transport: flit queue %q: stride must be positive, got %d", name, stride))
	}
	n := nextPow2(capacity)
	slots, data := make([]flitSlot, count*n), make([]byte, count*n*stride)
	qs := make([]flitQ, count)
	for i := range qs {
		lo, hi := i*n, (i+1)*n
		qs[i] = flitQ{
			name:     name,
			capacity: capacity,
			stride:   stride,
			slots:    slots[lo:hi:hi],
			data:     data[lo*stride : hi*stride : hi*stride],
			mask:     n - 1,
		}
	}
	return qs
}

// canPush reports whether n more slots may be staged this cycle.
func (q *flitQ) canPush(n int) bool {
	return q.unbounded || q.startLen+q.pend+n <= q.capacity
}

// len returns the number of committed (consumable) slots.
func (q *flitQ) len() int { return q.clen }

// slot returns the ring index of the i-th oldest committed slot.
func (q *flitQ) slot(i int) int { return (q.head + i) & q.mask }

// payload returns the payload bytes of the slot at ring index i.
func (q *flitQ) payload(i int) []byte {
	return q.data[i*q.stride : i*q.stride+int(q.slots[i].dlen)]
}

// touch puts the queue on its network's commit list, once per edge.
func (q *flitQ) touch() {
	if !q.listed {
		q.listed = true
		n := q.net
		if cap(n.touched) == 0 {
			// One allocation for the fabric's life: an edge lists each
			// lane at most once.
			n.touched = make([]*flitQ, 0, len(n.qs))
		}
		n.touched = append(n.touched, q)
	}
}

// stagePush reserves the next staging slot and returns its ring index;
// the caller fills q.slots and q.data there. Bounded queues must have
// checked canPush first.
func (q *flitQ) stagePush() int {
	q.touch()
	if q.clen+q.pend > q.mask {
		q.growRing(q.clen + q.pend + 1)
	}
	i := (q.head + q.clen + q.pend) & q.mask
	q.pend++
	return i
}

// stageCopy stages a copy of src's slot at ring index j, the slot and
// its payload bytes, and returns the staged slot's ring index.
func (q *flitQ) stageCopy(src *flitQ, j int) int {
	i := q.stagePush()
	q.slots[i] = src.slots[j]
	copy(q.data[i*q.stride:], src.payload(j))
	return i
}

// pop discards the oldest committed slot. Callers read the slot's
// fields (via q.slot(0) indexing) before popping. No zeroing is
// needed: slots hold no references. A lane it empties leaves its
// router's occupancy mask.
func (q *flitQ) pop() {
	q.touch() // the credit it frees returns at the commit
	q.head = (q.head + 1) & q.mask
	q.clen--
	if q.clen == 0 && q.occ != nil {
		*q.occ &^= q.bit
	}
}

// commit publishes this cycle's staged slots (already written in place
// behind the committed window) and refreshes the credit snapshot. The
// Network calls it for each lane on its commit list: a lane that was
// neither pushed nor popped since its last commit has pend == 0 and
// startLen == clen, so committing it would change nothing. A lane it
// fills joins its router's occupancy mask.
func (q *flitQ) commit() {
	q.listed = false
	if q.pend != 0 {
		if q.clen == 0 && q.occ != nil {
			*q.occ |= q.bit
		}
		q.clen += q.pend
		q.pend = 0
	}
	q.startLen = q.clen
}

// growRing doubles the ring until need slots fit (unbounded queues
// only; bounded queues can never stage past capacity <= ring size),
// linearizing the committed and staged window to the front.
func (q *flitQ) growRing(need int) {
	n := q.mask + 1
	for n < need {
		n *= 2
	}
	slots, data := make([]flitSlot, n), make([]byte, n*q.stride)
	for i := 0; i < q.clen+q.pend; i++ {
		j := (q.head + i) & q.mask
		slots[i] = q.slots[j]
		copy(data[i*q.stride:], q.payload(j))
	}
	q.slots, q.data = slots, data
	q.mask = n - 1
	q.head = 0
}
