package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Kind: KindRsp, Dst: 3, Src: 9, Tag: 12,
		Priority: noctypes.PrioHigh, Locked: true, Unlock: true,
		User: 0xA5, PayloadLen: 1234,
	}
	got, err := DecodeHeader(EncodeHeader(&h))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", h, got)
	}
}

func TestHeaderDecodeErrors(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Error("short header decoded")
	}
	bad := EncodeHeader(&Header{})
	bad[0] = 0x00
	if _, err := DecodeHeader(bad); err == nil {
		t.Error("bad magic decoded")
	}
}

// probeFunc adapts a function into an obs.Probe.
type probeFunc func(obs.Event)

func (f probeFunc) Event(ev obs.Event) { f(ev) }

// carry sends p from its Src to its Dst over a two-node crossbar with
// flits of flitBytes and returns the packet Recv hands the destination,
// with the flits TrySend queued and the VC of each flit the switch
// moved.
func carry(t *testing.T, p *Packet, flitBytes int) (got *Packet, queued int, vcs []uint8) {
	t.Helper()
	tn := newXbar(NetConfig{FlitBytes: flitBytes}, p.Src, p.Dst)
	tn.net.SetProbe(probeFunc(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindQueued:
			queued = ev.Val
		case obs.KindFlit:
			vcs = append(vcs, ev.VC)
		}
	}))
	if !tn.net.Endpoint(p.Src).TrySend(p) {
		t.Fatal("TrySend refused on an idle fabric")
	}
	tn.runUntilDrained(t, 2000)
	got, ok := tn.net.Endpoint(p.Dst).Recv()
	if !ok {
		t.Fatal("no packet reassembled")
	}
	return got, queued, vcs
}

func TestPacketizeSingleFlit(t *testing.T) {
	p := &Packet{Header: Header{Dst: 1, Src: 2}}
	got, queued, vcs := carry(t, p, 16) // header-only packet fits one 16B flit
	if queued != 1 || len(vcs) != 1 {
		t.Fatalf("queued %d flits, switch moved %d; want 1", queued, len(vcs))
	}
	if got.Header != p.Header {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
}

func TestPacketizeMultiFlit(t *testing.T) {
	p := &Packet{Header: Header{Dst: 1, Src: 2}, Payload: make([]byte, 20)}
	got, queued, vcs := carry(t, p, 8) // 36 wire bytes -> 5 flits
	if queued != 5 || len(vcs) != 5 {
		t.Fatalf("queued %d flits, switch moved %d; want 5", queued, len(vcs))
	}
	if got.PayloadLen != 20 || len(got.Payload) != 20 {
		t.Fatalf("payload %d bytes (header says %d), want 20", len(got.Payload), got.PayloadLen)
	}
}

func TestPacketizeVCAssignment(t *testing.T) {
	for _, c := range []struct {
		locked bool
		want   uint8
	}{{false, VCNormal}, {true, VCLocked}} {
		_, _, vcs := carry(t, &Packet{Header: Header{Dst: 1, Src: 2, Locked: c.locked}, Payload: make([]byte, 20)}, 8)
		for _, vc := range vcs {
			if vc != c.want {
				t.Fatalf("locked=%v: flit on VC %d, want %d", c.locked, vc, c.want)
			}
		}
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	payload := []byte("the fabric is transaction-unaware")
	p := &Packet{
		Header:  Header{Kind: KindReq, Dst: 4, Src: 5, Tag: 6, Priority: noctypes.PrioUrgent, User: 0x01},
		Payload: payload,
	}
	out, _, _ := carry(t, p, 8)
	if out.Dst != 4 || out.Src != 5 || out.Tag != 6 || out.User != 0x01 {
		t.Fatalf("header mismatch: %+v", out.Header)
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatalf("payload mismatch: %q", out.Payload)
	}
	if out.ID == 0 || out.ID != p.ID {
		t.Fatalf("ID = %d, TrySend assigned %d", out.ID, p.ID)
	}
}

func TestReassembleInterleaveDetected(t *testing.T) {
	var pool pktPool
	flit := make([]byte, 8)
	var r Reassembler
	if _, err := r.feed(1, true, false, flit, &pool); err != nil {
		t.Fatal(err)
	}
	if _, err := r.feed(2, true, false, flit, &pool); err == nil {
		t.Fatal("interleaved head not detected")
	}
	var r2 Reassembler
	if _, err := r2.feed(1, false, false, flit, &pool); err == nil {
		t.Fatal("body-without-head not detected")
	}
	var r3 Reassembler
	if _, err := r3.feed(1, true, false, flit, &pool); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.feed(2, false, true, flit, &pool); err == nil {
		t.Fatal("interleaved body not detected")
	}
}

func TestFlitCount(t *testing.T) {
	cases := []struct{ wire, flit, want int }{
		{16, 8, 2}, {17, 8, 3}, {8, 8, 1}, {1, 8, 1}, {100, 16, 7},
	}
	for _, c := range cases {
		if got := FlitCount(c.wire, c.flit); got != c.want {
			t.Errorf("FlitCount(%d,%d) = %d, want %d", c.wire, c.flit, got, c.want)
		}
	}
}

func TestFlitString(t *testing.T) {
	f := Flit{Head: true, Tail: true}
	if f.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: TrySend then Recv is the identity on header and payload for
// any header, any payload of 0-199 bytes and any flit width of 1-32
// bytes.
func TestQuickPacketizeRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := noctypes.NodeID(1 + rng.Intn(100))
		dst := noctypes.NodeID(1 + (int(src)+rng.Intn(99))%100)
		p := &Packet{
			Header: Header{
				Kind:     Kind(rng.Intn(2)),
				Dst:      dst,
				Src:      src,
				Tag:      noctypes.Tag(rng.Intn(16)),
				Priority: noctypes.Priority(rng.Intn(4)),
				Locked:   rng.Intn(2) == 0,
				User:     uint8(rng.Intn(256)),
			},
			Payload: make([]byte, rng.Intn(200)),
		}
		p.Unlock = p.Locked && rng.Intn(2) == 0
		rng.Read(p.Payload)
		out, _, _ := carry(t, p, 1+rng.Intn(32))
		return out.Header == p.Header && bytes.Equal(out.Payload, p.Payload) && out.ID == p.ID
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
