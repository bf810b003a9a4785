package transport

import "fmt"

// The Flit-valued helpers below let tests stage a flit they hold as a
// value and read a lane's head as one; the fabric itself only moves
// slots (stagePush and stageCopy).

// pushFlit stages the exported Flit f, for a test that holds a Flit
// value rather than a source slot. Its header lands on the slot whether
// or not it is a head, as serialize stamps every flit of a packet.
func (q *flitQ) pushFlit(f Flit) bool {
	if !q.canPush(1) {
		return false
	}
	if len(f.Data) > q.stride {
		panic(fmt.Sprintf("transport: flit queue %q: %dB flit exceeds %dB stride", q.name, len(f.Data), q.stride))
	}
	var fl uint8
	if f.Head {
		fl |= slotHead
	}
	if f.Tail {
		fl |= slotTail
	}
	i := q.stagePush()
	q.slots[i] = flitSlot{pktID: f.PktID, hdr: f.Hdr, dlen: uint16(len(f.Data)), flags: fl, vc: f.VC, hops: f.Hops}
	copy(q.payload(i), f.Data)
	return true
}

// peek returns the oldest committed slot as a Flit. Its Data aliases
// the slot's storage: it is valid until the slot is popped or
// overwritten.
func (q *flitQ) peek() (Flit, bool) {
	if q.clen == 0 {
		return Flit{}, false
	}
	s := &q.slots[q.head]
	return Flit{
		PktID: s.pktID,
		VC:    s.vc,
		Head:  s.flags&slotHead != 0,
		Tail:  s.flags&slotTail != 0,
		Hdr:   s.hdr,
		Data:  q.payload(q.head),
		Hops:  s.hops,
	}, true
}
