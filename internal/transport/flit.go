package transport

import "fmt"

// Flit is a flow-control unit: the atom that switches and links move. A
// packet of N wire bytes becomes ceil(N/flitBytes) flits. The head flit
// carries a decoded copy of the header so switches can route without
// reparsing bytes; the byte stream remains the canonical content and is
// what reassembly decodes.
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

// Packetize serializes a packet and splits it into flits of at most
// flitBytes data each. The packet's PayloadLen is set as a side effect.
func Packetize(p *Packet, flitBytes int) []Flit {
	return PacketizeInto(p, flitBytes, nil)
}

// PacketizeInto is Packetize reusing the caller's flit slice (overwritten
// from its start, grown as needed). The flit headers may be recycled once
// the flits have been copied onward; the serialized wire bytes they
// reference are freshly allocated per call, because they must survive
// until reassembly at the far endpoint.
func PacketizeInto(p *Packet, flitBytes int, flits []Flit) []Flit {
	if flitBytes <= 0 {
		panic(fmt.Sprintf("transport: flitBytes must be positive, got %d", flitBytes))
	}
	p.PayloadLen = uint32(len(p.Payload))
	wire := make([]byte, 0, HeaderBytes+len(p.Payload))
	wire = AppendHeader(wire, &p.Header)
	wire = append(wire, p.Payload...)
	return sliceFlits(p, wire, flitBytes, flits)
}

// sliceFlits splits a serialized wire image into flit views over it,
// reusing the caller's flit slice.
func sliceFlits(p *Packet, wire []byte, flitBytes int, flits []Flit) []Flit {
	vc := VCNormal
	if p.Locked {
		vc = VCLocked
	}
	n := (len(wire) + flitBytes - 1) / flitBytes
	if cap(flits) < n {
		flits = make([]Flit, 0, n)
	} else {
		flits = flits[:0]
	}
	for i := 0; i < n; i++ {
		lo := i * flitBytes
		hi := lo + flitBytes
		if hi > len(wire) {
			hi = len(wire)
		}
		f := Flit{
			PktID: p.ID,
			VC:    vc,
			Head:  i == 0,
			Tail:  i == n-1,
			Data:  wire[lo:hi],
		}
		if f.Head {
			f.Hdr = p.Header
		}
		flits = append(flits, f)
	}
	return flits
}

// Packetizer is a reusable packetization scratch: the wire-byte buffer
// and flit slice live on the Packetizer and are overwritten per call, so
// steady-state packetization performs zero allocations. The returned
// flits (and their Data slices) are valid until the next Packetize call.
type Packetizer struct {
	wire  []byte
	flits []Flit
}

// Packetize serializes a packet into flits of at most flitBytes data
// each, reusing the Packetizer's scratch. The packet's PayloadLen is set
// as a side effect.
func (z *Packetizer) Packetize(p *Packet, flitBytes int) []Flit {
	if flitBytes <= 0 {
		panic(fmt.Sprintf("transport: flitBytes must be positive, got %d", flitBytes))
	}
	p.PayloadLen = uint32(len(p.Payload))
	z.wire = AppendHeader(z.wire[:0], &p.Header)
	z.wire = append(z.wire, p.Payload...)
	z.flits = sliceFlits(p, z.wire, flitBytes, z.flits)
	return z.flits
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

// Feed consumes one flit. When the flit completes a packet, the decoded
// packet is returned. Errors indicate fabric bugs (interleaving or
// corruption) and are fatal in tests.
func (r *Reassembler) Feed(f Flit) (*Packet, error) {
	return r.feed(f.PktID, f.Head, f.Tail, f.Data, nil)
}

// feed is the field-wise Feed the fabric hot path uses: endpoint
// ejection reads flit fields straight out of struct-of-arrays slots, so
// no Flit value is ever materialized. When pool is non-nil, completed
// packets draw their descriptor and payload storage from that free list
// (the network's pool; see Network.Recycle); a nil pool allocates fresh,
// matching the exported Feed.
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
	var pkt *Packet
	if pool != nil {
		pkt = pool.get()
	} else {
		pkt = &Packet{}
	}
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
