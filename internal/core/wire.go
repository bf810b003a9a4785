package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gonoc/internal/noctypes"
)

// Wire format. Requests and responses are genuinely serialized to bytes at
// the NIU boundary: the transport layer carries only these opaque payloads
// plus the header triple. The format is little-endian and versioned by the
// leading magic nibble so decode errors are loud.
//
// The codec has one implementation, in place: AppendRequest and
// AppendResponse serialize onto a caller-owned buffer, and
// DecodeRequestInto and DecodeResponseInto parse into a caller-owned
// message whose Data and BE alias the input bytes. The NIU engines run on
// these alone, so a steady-state transaction allocates nothing for its
// wire images. EncodeRequest, DecodeRequest, EncodeResponse and
// DecodeResponse are allocating wrappers over them that return
// independent buffers and messages.

const (
	reqMagic  = 0xA0
	rspMagic  = 0xB0
	reqHdrLen = 16
	rspHdrLen = 16
)

// Request payload flags.
const (
	flagExclusive = 1 << 0
	flagLocked    = 1 << 1
	flagUnlock    = 1 << 2
	flagPosted    = 1 << 3
	flagHasBE     = 1 << 4
)

// Response payload flags: none currently; reserved.

// AppendRequest serializes r onto dst and returns the extended slice — the
// in-place form of EncodeRequest for callers that own a buffer.
func AppendRequest(dst []byte, r *Request) []byte {
	var hdr [reqHdrLen]byte
	hdr[0] = reqMagic | byte(r.Cmd)
	var fl byte
	if r.Exclusive {
		fl |= flagExclusive
	}
	if r.Locked {
		fl |= flagLocked
	}
	if r.Unlock {
		fl |= flagUnlock
	}
	if r.Posted {
		fl |= flagPosted
	}
	if r.BE != nil {
		fl |= flagHasBE
	}
	hdr[1] = fl
	hdr[2] = r.Size
	hdr[3] = byte(r.Burst)
	binary.LittleEndian.PutUint16(hdr[4:6], r.Len)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(r.Priority))
	binary.LittleEndian.PutUint64(hdr[8:16], r.Addr)
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Data...)
	return append(dst, r.BE...)
}

// EncodeRequest serializes a request into a new payload buffer.
func EncodeRequest(r *Request) []byte {
	return AppendRequest(make([]byte, 0, reqHdrLen+len(r.Data)+len(r.BE)), r)
}

// DecodeRequestInto parses transport payload bytes into r, overwriting
// every field. r.Data and r.BE alias buf (capacity-capped, so appending
// to them copies): they stay valid only while buf does. Header fields carried outside the payload (Src, Dst, Tag, Seq)
// are zeroed; the caller fills them in from the packet header.
func DecodeRequestInto(r *Request, buf []byte) error {
	*r = Request{}
	if len(buf) < reqHdrLen {
		return fmt.Errorf("core: request payload too short (%d bytes)", len(buf))
	}
	if buf[0]&0xF0 != reqMagic {
		return fmt.Errorf("core: bad request magic %#x", buf[0])
	}
	fl := buf[1]
	r.Cmd = Cmd(buf[0] & 0x0F)
	r.Size = buf[2]
	r.Burst = BurstKind(buf[3])
	r.Len = binary.LittleEndian.Uint16(buf[4:6])
	r.Exclusive = fl&flagExclusive != 0
	r.Locked = fl&flagLocked != 0
	r.Unlock = fl&flagUnlock != 0
	r.Posted = fl&flagPosted != 0
	r.Priority = noctypes.Priority(binary.LittleEndian.Uint16(buf[6:8]))
	r.Addr = binary.LittleEndian.Uint64(buf[8:16])

	rest := buf[reqHdrLen:]
	if r.Cmd.IsWrite() {
		want := r.Bytes()
		if fl&flagHasBE != 0 {
			if len(rest) != 2*want {
				return fmt.Errorf("core: write payload %d bytes, want %d data + %d BE", len(rest), want, want)
			}
			r.Data = rest[:want:want]
			r.BE = rest[want:len(rest):len(rest)]
		} else {
			if len(rest) != want {
				return fmt.Errorf("core: write payload %d bytes, want %d", len(rest), want)
			}
			r.Data = rest[:len(rest):len(rest)]
		}
	} else if len(rest) != 0 {
		return fmt.Errorf("core: read request carries %d payload bytes", len(rest))
	}
	return r.Validate()
}

// DecodeRequest parses transport payload bytes into a new request that
// owns its Data and BE. Header fields carried outside the payload (Src,
// Dst, Tag, Seq) must be filled in by the caller from the packet header.
func DecodeRequest(buf []byte) (*Request, error) {
	r := new(Request)
	if err := DecodeRequestInto(r, buf); err != nil {
		return nil, err
	}
	r.Data = bytes.Clone(r.Data)
	r.BE = bytes.Clone(r.BE)
	return r, nil
}

// AppendResponse serializes p onto dst and returns the extended slice —
// the in-place form of EncodeResponse.
func AppendResponse(dst []byte, p *Response) []byte {
	var hdr [rspHdrLen]byte
	hdr[0] = rspMagic | byte(p.Status)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(p.Data)))
	// Bytes 6..16 are reserved. Note deliberately absent: no sequence
	// number travels on the wire — per-(MstAddr,Tag) FIFO ordering lets the
	// master NIU recover request identity from its state table, which is
	// exactly the paper's low-gate-count ordering argument.
	dst = append(dst, hdr[:]...)
	return append(dst, p.Data...)
}

// EncodeResponse serializes a response into a new payload buffer.
func EncodeResponse(p *Response) []byte {
	return AppendResponse(make([]byte, 0, rspHdrLen+len(p.Data)), p)
}

// DecodeResponseInto parses transport payload bytes into p, overwriting
// every field. p.Data aliases buf (nil when the response carries no
// data). Src, Dst, Tag, Priority and Seq are zeroed for the caller to
// fill in.
func DecodeResponseInto(p *Response, buf []byte) error {
	*p = Response{}
	if len(buf) < rspHdrLen {
		return fmt.Errorf("core: response payload too short (%d bytes)", len(buf))
	}
	if buf[0]&0xF0 != rspMagic {
		return fmt.Errorf("core: bad response magic %#x", buf[0])
	}
	p.Status = Status(buf[0] & 0x0F)
	n := binary.LittleEndian.Uint32(buf[2:6])
	if int(n) != len(buf)-rspHdrLen {
		return fmt.Errorf("core: response declares %d data bytes, carries %d", n, len(buf)-rspHdrLen)
	}
	if n > 0 {
		p.Data = buf[rspHdrLen:len(buf):len(buf)]
	}
	return p.Validate()
}

// DecodeResponse parses transport payload bytes into a new response that
// owns its Data.
func DecodeResponse(buf []byte) (*Response, error) {
	p := new(Response)
	if err := DecodeResponseInto(p, buf); err != nil {
		return nil, err
	}
	p.Data = bytes.Clone(p.Data)
	return p, nil
}
