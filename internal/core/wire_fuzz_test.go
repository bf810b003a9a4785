package core

import (
	"bytes"
	"reflect"
	"testing"
)

// The codec's in-place forms decode into caller-owned, reused messages
// and encode onto caller-owned, reused buffers, so the fuzzers pin what
// reuse must never change: a dirty message decodes exactly like a zero
// one (no stale Data, BE or flag survives), the append encoders write
// the same bytes as the allocating ones whatever the destination held,
// and every message that decodes round-trips.

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dirtyRequest returns a request with every field set, as a message
// reused after an earlier transaction would be.
func dirtyRequest() *Request {
	return &Request{
		Cmd: CmdWriteUnlk, Addr: ^uint64(0), Size: 8, Len: 3, Burst: BurstWrap,
		Data: []byte{0xDE, 0xAD}, BE: []byte{0xBE, 0xEF},
		Exclusive: true, Locked: true, Unlock: true, Posted: true,
		Src: 7, Dst: 8, Tag: 9, Priority: 3, Seq: 10,
	}
}

// checkAppend verifies that append encoding onto a destination that
// already holds bytes, with junk in its spare capacity, extends it by
// exactly want.
func checkAppend(t *testing.T, appendTo func([]byte) []byte, want []byte) {
	t.Helper()
	dst := bytes.Repeat([]byte{0xEE}, 3+len(want)+8)[:3]
	got := appendTo(dst)
	if !bytes.Equal(got[:3], []byte{0xEE, 0xEE, 0xEE}) || !bytes.Equal(got[3:], want) {
		t.Fatalf("append encoding %x, want prefix eeeeee + %x", got, want)
	}
}

func FuzzRequestCodec(f *testing.F) {
	for c := CmdRead; c < numCmds; c++ {
		f.Add(EncodeRequest(validRequest(c, 0x1000, 4, 4, BurstIncr)))
	}
	be := validRequest(CmdWrite, 0x40, 2, 3, BurstWrap)
	be.BE = []byte{0xFF, 0x00, 0xFF, 0xFF, 0x00, 0xFF}
	f.Add(EncodeRequest(be))
	f.Add([]byte{})
	f.Add([]byte{reqMagic})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var zero Request
		zerr := DecodeRequestInto(&zero, buf)
		dirty := dirtyRequest()
		if derr := DecodeRequestInto(dirty, buf); errText(derr) != errText(zerr) {
			t.Fatalf("dirty decode error %q, zero decode error %q", errText(derr), errText(zerr))
		}
		if !reflect.DeepEqual(dirty, &zero) {
			t.Fatalf("dirty decode %+v differs from zero decode %+v", dirty, &zero)
		}
		owned, werr := DecodeRequest(buf)
		if errText(werr) != errText(zerr) {
			t.Fatalf("DecodeRequest error %q, DecodeRequestInto error %q", errText(werr), errText(zerr))
		}
		if zerr != nil {
			return
		}
		if !reflect.DeepEqual(owned, &zero) {
			t.Fatalf("DecodeRequest %+v differs from DecodeRequestInto %+v", owned, &zero)
		}
		enc := EncodeRequest(&zero)
		checkAppend(t, func(dst []byte) []byte { return AppendRequest(dst, &zero) }, enc)
		var again Request
		if err := DecodeRequestInto(&again, enc); err != nil {
			t.Fatalf("re-decoding %x: %v", enc, err)
		}
		if !reflect.DeepEqual(&again, &zero) {
			t.Fatalf("round trip %+v, want %+v", &again, &zero)
		}
	})
}

func FuzzResponseCodec(f *testing.F) {
	f.Add(EncodeResponse(&Response{Status: StOK, Data: []byte{1, 2, 3, 4}}))
	f.Add(EncodeResponse(&Response{Status: StExFail}))
	f.Add(EncodeResponse(&Response{Status: StErrSlave, Data: make([]byte, 64)}))
	f.Add([]byte{})
	f.Add([]byte{rspMagic})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var zero Response
		zerr := DecodeResponseInto(&zero, buf)
		dirty := &Response{Status: StExOK, Data: []byte{0xDE, 0xAD}, Src: 7, Dst: 8, Tag: 9, Priority: 3, Seq: 10}
		if derr := DecodeResponseInto(dirty, buf); errText(derr) != errText(zerr) {
			t.Fatalf("dirty decode error %q, zero decode error %q", errText(derr), errText(zerr))
		}
		if !reflect.DeepEqual(dirty, &zero) {
			t.Fatalf("dirty decode %+v differs from zero decode %+v", dirty, &zero)
		}
		owned, werr := DecodeResponse(buf)
		if errText(werr) != errText(zerr) {
			t.Fatalf("DecodeResponse error %q, DecodeResponseInto error %q", errText(werr), errText(zerr))
		}
		if zerr != nil {
			return
		}
		if !reflect.DeepEqual(owned, &zero) {
			t.Fatalf("DecodeResponse %+v differs from DecodeResponseInto %+v", owned, &zero)
		}
		enc := EncodeResponse(&zero)
		checkAppend(t, func(dst []byte) []byte { return AppendResponse(dst, &zero) }, enc)
		var again Response
		if err := DecodeResponseInto(&again, enc); err != nil {
			t.Fatalf("re-decoding %x: %v", enc, err)
		}
		if !reflect.DeepEqual(&again, &zero) {
			t.Fatalf("round trip %+v, want %+v", &again, &zero)
		}
	})
}
