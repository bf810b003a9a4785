package wishbone

import (
	"bytes"
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

func newRig(cfg MemoryConfig) (*sim.Clock, *Master, *mem.Backing) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "wb", sim.Nanosecond, 0)
	port := NewPort(clk, "wb", 4)
	store := mem.NewBacking(1 << 16)
	NewMemory(clk, port, store, 0, cfg)
	return clk, NewMaster(clk, port), store
}

func run(t *testing.T, clk *sim.Clock, max int, done func() bool) {
	t.Helper()
	for c := 0; c < max; c++ {
		if done() {
			return
		}
		clk.RunCycles(1)
	}
	t.Fatalf("condition not reached in %d cycles", max)
}

func TestClassicRoundTrip(t *testing.T) {
	clk, m, _ := newRig(MemoryConfig{Latency: 1})
	want := []byte{1, 2, 3, 4}
	wr := false
	m.Write(0x100, 4, want, Classic, Linear, func(err bool) {
		if err {
			t.Error("write errored")
		}
		wr = true
	})
	run(t, clk, 100, func() bool { return wr })
	var got []byte
	m.Read(0x100, 4, 1, Classic, Linear, func(d []byte, err bool) { got = bytes.Clone(d) })
	run(t, clk, 100, func() bool { return got != nil })
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

func TestIncrementingBurstAndWrap(t *testing.T) {
	clk, m, _ := newRig(MemoryConfig{Latency: 1, RegisteredFeedback: true})
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	wr := false
	m.Write(0x200, 4, data, Incrementing, Linear, func(bool) { wr = true })
	run(t, clk, 100, func() bool { return wr })

	// Wrap4 read starting mid-window: beats visit 0x208,0x20C,0x200,0x204.
	var got []byte
	m.Read(0x208, 4, 4, Incrementing, Wrap4, func(d []byte, _ bool) { got = bytes.Clone(d) })
	run(t, clk, 100, func() bool { return got != nil })
	want := append(append([]byte(nil), data[8:]...), data[:8]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("wrap read %v, want %v", got, want)
	}
}

func TestConstAddrBurst(t *testing.T) {
	clk, m, store := newRig(MemoryConfig{Latency: 0, RegisteredFeedback: true})
	// Constant-address write: the last beat wins.
	wr := false
	m.Write(0x40, 4, []byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, ConstAddr, Linear, func(bool) { wr = true })
	run(t, clk, 100, func() bool { return wr })
	if got := store.Read(0x40, 4); !bytes.Equal(got, []byte{3, 3, 3, 3}) {
		t.Fatalf("const-addr write result %v", got)
	}
}

func TestRegisteredFeedbackFasterThanClassic(t *testing.T) {
	timeBurst := func(cfg MemoryConfig, cti CTI) int64 {
		clk, m, _ := newRig(cfg)
		done := false
		m.Read(0, 4, 8, cti, Linear, func([]byte, bool) { done = true })
		for c := int64(0); c < 1000; c++ {
			if done {
				return c
			}
			clk.RunCycles(1)
		}
		return -1
	}
	classic := timeBurst(MemoryConfig{Latency: 2}, Classic)
	burst := timeBurst(MemoryConfig{Latency: 2, RegisteredFeedback: true}, Incrementing)
	if classic <= 0 || burst <= 0 {
		t.Fatal("bursts did not complete")
	}
	// 8 classic beats cost (2+1)*8 handshake cycles; the registered-
	// feedback burst costs 2+8-1. The gap must show.
	if burst >= classic {
		t.Fatalf("registered feedback (%d cyc) not faster than classic (%d cyc)", burst, classic)
	}
}

func TestErrWindow(t *testing.T) {
	clk, m, _ := newRig(MemoryConfig{Latency: 0, ErrLo: 0x1000, ErrHi: 0x2000})
	var rdErr, wrErr bool
	gotRd, gotWr := false, false
	m.Read(0x1000, 4, 1, Classic, Linear, func(_ []byte, err bool) { rdErr = err; gotRd = true })
	m.Write(0x1800, 4, []byte{1, 2, 3, 4}, Classic, Linear, func(err bool) { wrErr = err; gotWr = true })
	run(t, clk, 200, func() bool { return gotRd && gotWr })
	if !rdErr || !wrErr {
		t.Fatalf("ERR window not honoured: read err=%v write err=%v", rdErr, wrErr)
	}
	// Outside the window everything still works.
	ok := false
	m.Write(0x2000, 4, []byte{9, 9, 9, 9}, Classic, Linear, func(err bool) { ok = !err })
	run(t, clk, 200, func() bool { return ok })
}

func TestSelWrite(t *testing.T) {
	clk, m, store := newRig(MemoryConfig{})
	wr := false
	m.Write(0x80, 4, []byte{0xAA, 0xAA, 0xAA, 0xAA}, Classic, Linear, func(bool) { wr = true })
	run(t, clk, 100, func() bool { return wr })
	wr = false
	m.WriteSel(0x80, 4, []byte{1, 2, 3, 4}, []byte{0xFF, 0, 0xFF, 0}, Classic, Linear, func(bool) { wr = true })
	run(t, clk, 100, func() bool { return wr })
	if got := store.Read(0x80, 4); !bytes.Equal(got, []byte{1, 0xAA, 3, 0xAA}) {
		t.Fatalf("SEL-masked write result %v", got)
	}
}
