package transport

import (
	"encoding/binary"
	"fmt"

	"gonoc/internal/noctypes"
)

// Kind distinguishes request packets (routed by SlvAddr) from response
// packets (routed by MstAddr). The fabric treats both identically; the
// kind exists so endpoints can demultiplex.
type Kind uint8

// Packet kinds.
const (
	KindReq Kind = iota
	KindRsp
)

// String renders a Kind.
func (k Kind) String() string {
	if k == KindReq {
		return "REQ"
	}
	return "RSP"
}

// Header is the transport-visible part of a packet. Everything a switch
// ever inspects lives here.
type Header struct {
	Kind       Kind
	Dst        noctypes.NodeID // the paper's SlvAddr (or MstAddr for responses)
	Src        noctypes.NodeID // the paper's MstAddr (or SlvAddr for responses)
	Tag        noctypes.Tag    // the paper's Tag: per-(Src,Tag) order preserved
	Priority   noctypes.Priority
	Locked     bool  // member of a legacy lock sequence (transport-visible!)
	Unlock     bool  // final member: releases path reservations
	User       uint8 // NoC service bits; carried, never interpreted
	PayloadLen uint32
}

// Packet is one transport-layer packet: a header plus opaque payload.
type Packet struct {
	Header
	Payload []byte

	// ID is a simulator-assigned unique identifier used for flit
	// reassembly and tracing; it is not part of the wire format.
	ID uint64
}

// pktPool is a packet-descriptor free list: the fabric draws reassembled
// packets from it and Network.Recycle returns them.
type pktPool struct {
	free []*Packet
}

func (pl *pktPool) get() *Packet {
	if k := len(pl.free); k > 0 {
		p := pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
		return p
	}
	return &Packet{}
}

func (pl *pktPool) newPacket(payloadBytes int) *Packet {
	p := pl.get()
	if cap(p.Payload) < payloadBytes {
		p.Payload = make([]byte, payloadBytes)
	} else {
		p.Payload = p.Payload[:payloadBytes]
		clear(p.Payload)
	}
	return p
}

func (pl *pktPool) recycle(p *Packet) {
	if p == nil {
		return
	}
	payload := p.Payload[:0]
	*p = Packet{}
	p.Payload = payload
	pl.free = append(pl.free, p)
}

// Wire format constants.
const (
	HeaderBytes = 16
	hdrMagic    = 0xC3
)

// Header flag bits in byte 1.
const (
	hfKindRsp = 1 << 0
	hfLocked  = 1 << 1
	hfUnlock  = 1 << 2
)

// EncodeHeader serializes the header into 16 wire bytes.
func EncodeHeader(h *Header) []byte {
	return AppendHeader(make([]byte, 0, HeaderBytes), h)
}

// AppendHeader serializes the header onto dst and returns the extended
// slice — the allocation-free form of EncodeHeader for hot paths that
// already own a buffer.
func AppendHeader(dst []byte, h *Header) []byte {
	var buf [HeaderBytes]byte
	buf[0] = hdrMagic
	var fl byte
	if h.Kind == KindRsp {
		fl |= hfKindRsp
	}
	if h.Locked {
		fl |= hfLocked
	}
	if h.Unlock {
		fl |= hfUnlock
	}
	buf[1] = fl
	binary.LittleEndian.PutUint16(buf[2:4], uint16(h.Dst))
	binary.LittleEndian.PutUint16(buf[4:6], uint16(h.Src))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(h.Tag))
	buf[8] = uint8(h.Priority)
	buf[9] = h.User
	binary.LittleEndian.PutUint32(buf[10:14], h.PayloadLen)
	return append(dst, buf[:]...)
}

// DecodeHeader parses 16 wire bytes into a header.
func DecodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderBytes {
		return h, fmt.Errorf("transport: header too short (%d bytes)", len(buf))
	}
	if buf[0] != hdrMagic {
		return h, fmt.Errorf("transport: bad header magic %#x", buf[0])
	}
	fl := buf[1]
	if fl&hfKindRsp != 0 {
		h.Kind = KindRsp
	}
	h.Locked = fl&hfLocked != 0
	h.Unlock = fl&hfUnlock != 0
	h.Dst = noctypes.NodeID(binary.LittleEndian.Uint16(buf[2:4]))
	h.Src = noctypes.NodeID(binary.LittleEndian.Uint16(buf[4:6]))
	h.Tag = noctypes.Tag(binary.LittleEndian.Uint16(buf[6:8]))
	h.Priority = noctypes.Priority(buf[8])
	h.User = buf[9]
	h.PayloadLen = binary.LittleEndian.Uint32(buf[10:14])
	return h, nil
}

// String renders a compact description.
func (p *Packet) String() string {
	return fmt.Sprintf("%s pkt#%d %s->%s %s prio=%s %dB",
		p.Kind, p.ID, p.Src, p.Dst, p.Tag, p.Priority, len(p.Payload))
}
