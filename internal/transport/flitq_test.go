package transport

import "fmt"

// The Flit-valued helpers below let tests stage a flit they hold as a
// value and read a lane's head as one; the fabric itself only moves
// slots (stagePush and copySlot).

// view materializes slot i as the exported Flit type. The Data slice
// aliases the slot's storage: it is valid until the slot is popped or
// overwritten. Body flits get a zero Hdr.
func (s *flitSlots) view(i, stride int) Flit {
	f := Flit{
		PktID: s.pktID[i],
		VC:    s.vc[i],
		Head:  s.flags[i]&slotHead != 0,
		Tail:  s.flags[i]&slotTail != 0,
		Hops:  s.hops[i],
		Data:  s.data[i*stride : i*stride+int(s.dlen[i])],
	}
	if f.Head {
		f.Hdr = s.hdr[i]
	}
	return f
}

// setFromFlit writes the exported Flit f into slot i, the inverse of
// view.
func (s *flitSlots) setFromFlit(i int, f Flit, stride int) {
	s.pktID[i] = f.PktID
	var fl uint8
	if f.Head {
		fl |= slotHead
	}
	if f.Tail {
		fl |= slotTail
	}
	s.flags[i] = fl
	s.vc[i] = f.VC
	s.hops[i] = f.Hops
	s.dlen[i] = uint16(len(f.Data))
	copy(s.data[i*stride:], f.Data)
	if f.Head {
		s.hdr[i] = f.Hdr
		s.times[i] = pktTimes{}
	}
}

// pushFlit stages the exported Flit f, for a test that holds a Flit
// value rather than a source slot.
func (q *flitQ) pushFlit(f Flit) bool {
	if !q.canPush(1) {
		return false
	}
	if len(f.Data) > q.stride {
		panic(fmt.Sprintf("transport: flit queue %q: %dB flit exceeds %dB stride", q.name, len(f.Data), q.stride))
	}
	q.ring.setFromFlit(q.stagePush(), f, q.stride)
	return true
}

// peek returns the oldest committed slot as a Flit view.
func (q *flitQ) peek() (Flit, bool) {
	if q.clen == 0 {
		return Flit{}, false
	}
	return q.ring.view(q.head, q.stride), true
}
