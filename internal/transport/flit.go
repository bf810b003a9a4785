package transport

import "fmt"

// Flit is a flow-control unit: the atom that switches and links move. A
// packet of N wire bytes becomes ceil(N/flitBytes) flits. The head flit
// carries a decoded copy of the header so switches can route without
// reparsing bytes (inside the fabric every flit of a packet carries it,
// so a switch reads the lock flags from the tail it forwards); the byte
// stream remains the canonical content and is what reassembly decodes.
type Flit struct {
	PktID uint64
	VC    uint8 // virtual channel (VCNormal or VCLocked)
	Head  bool
	Tail  bool
	Hdr   Header // valid when Head
	Data  []byte
	Hops  uint8 // router traversals, for statistics
}

// Virtual channels. VCLocked exists so the packets of a legacy lock
// sequence can bypass normal traffic blocked by the sequence's own path
// reservations — the price the paper alludes to when it says READEX/LOCK
// "impact transport level".
const (
	VCNormal uint8 = 0
	VCLocked uint8 = 1
	NumVCs         = 2
)

// String renders a flit.
func (f Flit) String() string {
	role := "body"
	switch {
	case f.Head && f.Tail:
		role = "single"
	case f.Head:
		role = "head"
	case f.Tail:
		role = "tail"
	}
	return fmt.Sprintf("flit pkt#%d vc%d %s %dB", f.PktID, f.VC, role, len(f.Data))
}

// Reassembler rebuilds packets from a contiguous flit stream. Wormhole
// and store-and-forward switching both deliver the flits of one packet
// contiguously on a given ejection port, so a single accumulation buffer
// per port suffices.
type Reassembler struct {
	cur    []byte
	curID  uint64
	active bool
}

// feed consumes one flit, given field-wise: endpoint ejection reads
// them straight out of the flit's slot, so no Flit value is ever
// materialized. When the flit completes a packet, the decoded
// packet is returned, its descriptor and payload storage drawn from
// pool (the network's free list; see Network.Recycle). Errors indicate
// fabric bugs (interleaving or corruption) and are fatal.
func (r *Reassembler) feed(pktID uint64, head, tail bool, data []byte, pool *pktPool) (*Packet, error) {
	if head {
		if r.active {
			return nil, fmt.Errorf("transport: head flit of pkt#%d interleaved into pkt#%d", pktID, r.curID)
		}
		r.active = true
		r.curID = pktID
		r.cur = r.cur[:0]
	} else {
		if !r.active {
			return nil, fmt.Errorf("transport: body flit of pkt#%d with no packet in progress", pktID)
		}
		if pktID != r.curID {
			return nil, fmt.Errorf("transport: flit of pkt#%d interleaved into pkt#%d", pktID, r.curID)
		}
	}
	r.cur = append(r.cur, data...)
	if !tail {
		return nil, nil
	}
	r.active = false
	hdr, err := DecodeHeader(r.cur)
	if err != nil {
		return nil, err
	}
	if int(hdr.PayloadLen) != len(r.cur)-HeaderBytes {
		return nil, fmt.Errorf("transport: pkt#%d declares %d payload bytes, carries %d",
			pktID, hdr.PayloadLen, len(r.cur)-HeaderBytes)
	}
	pkt := pool.get()
	pkt.Header = hdr
	pkt.ID = pktID
	if hdr.PayloadLen > 0 {
		pkt.Payload = append(pkt.Payload[:0], r.cur[HeaderBytes:]...)
	}
	return pkt, nil
}

// FlitCount returns how many flits a packet of wireBytes needs.
func FlitCount(wireBytes, flitBytes int) int {
	return (wireBytes + flitBytes - 1) / flitBytes
}
