package axi

import (
	"bytes"
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

// rig is a directly connected master/memory pair.
type rig struct {
	k     *sim.Kernel
	clk   *sim.Clock
	m     *Master
	mem   *Memory
	chk   *Checker
	store *mem.Backing
}

func newRig(cfg MemoryConfig) *rig {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "clk", sim.Nanosecond, 0)
	port := NewPort(clk, "axi", 4)
	chk := NewChecker()
	store := mem.NewBacking(1 << 20)
	return &rig{
		k: k, clk: clk, chk: chk, store: store,
		m:   NewMaster(clk, port, chk),
		mem: NewMemory(clk, port, store, 0, cfg),
	}
}

func (r *rig) run(t *testing.T, maxCycles int) {
	t.Helper()
	for c := 0; c < maxCycles; c++ {
		if r.m.Outstanding() == 0 {
			break
		}
		r.clk.RunCycles(1)
	}
	if r.m.Outstanding() != 0 {
		t.Fatalf("transactions stuck: %d outstanding", r.m.Outstanding())
	}
	for _, e := range r.chk.Errs() {
		t.Errorf("protocol violation: %v", e)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 2})
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var wr Resp = 0xFF
	r.m.Write(0, 0x100, 4, BurstIncr, want, func(resp Resp) { wr = resp })
	r.run(t, 200)
	if wr != RespOKAY {
		t.Fatalf("write resp = %v", wr)
	}
	var got []byte
	r.m.Read(0, 0x100, 4, 2, BurstIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

func TestBurst16Beats(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 1})
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	r.m.Write(3, 0x200, 4, BurstIncr, data, nil)
	r.run(t, 500)
	var got []byte
	r.m.Read(3, 0x200, 4, 16, BurstIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 500)
	if !bytes.Equal(got, data) {
		t.Fatal("16-beat burst round trip failed")
	}
}

func TestWrapBurst(t *testing.T) {
	r := newRig(MemoryConfig{})
	// Fill window [0x100,0x110).
	r.m.Write(0, 0x100, 4, BurstIncr, []byte{
		0xA, 0, 0, 0, 0xB, 0, 0, 0, 0xC, 0, 0, 0, 0xD, 0, 0, 0,
	}, nil)
	r.run(t, 200)
	// WRAP4 from 0x108 reads 0xC, 0xD, 0xA, 0xB beat-leading bytes.
	var got []byte
	r.m.Read(0, 0x108, 4, 4, BurstWrap, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200)
	want := []byte{0xC, 0, 0, 0, 0xD, 0, 0, 0, 0xA, 0, 0, 0, 0xB, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("wrap read = %v, want %v", got, want)
	}
}

func TestFixedBurst(t *testing.T) {
	r := newRig(MemoryConfig{})
	// FIXED write: all beats land on the same address; last beat sticks.
	r.m.Write(0, 0x40, 4, BurstFixed, []byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, nil)
	r.run(t, 200)
	var got []byte
	r.m.Read(0, 0x40, 4, 1, BurstIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200)
	if !bytes.Equal(got, []byte{3, 3, 3, 3}) {
		t.Fatalf("fixed write result = %v", got)
	}
}

func TestWriteStrobes(t *testing.T) {
	r := newRig(MemoryConfig{})
	r.m.Write(0, 0x80, 4, BurstIncr, []byte{0xAA, 0xBB, 0xCC, 0xDD}, nil)
	r.run(t, 100)
	// Overwrite only bytes 1 and 2.
	r.m.WriteStrobed(0, 0x80, 4, BurstIncr,
		[]byte{0x11, 0x22, 0x33, 0x44}, []byte{0, 0xFF, 0xFF, 0}, nil)
	r.run(t, 100)
	var got []byte
	r.m.Read(0, 0x80, 4, 1, BurstIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 100)
	if !bytes.Equal(got, []byte{0xAA, 0x22, 0x33, 0xDD}) {
		t.Fatalf("strobed write result = %v", got)
	}
}

func TestOutOfOrderAcrossIDs(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 0, Reorder: true})
	var order []int
	// ID 1's long burst occupies the slave while IDs 2 and 3 queue
	// behind it; LIFO service then lets ID 3 overtake ID 2 — the
	// out-of-order completion AXI permits across IDs.
	r.m.Read(1, 0x0, 4, 8, BurstIncr, func(ReadResult) { order = append(order, 1) })
	r.m.Read(2, 0x100, 4, 1, BurstIncr, func(ReadResult) { order = append(order, 2) })
	r.m.Read(3, 0x200, 4, 1, BurstIncr, func(ReadResult) { order = append(order, 3) })
	r.run(t, 500)
	if len(order) != 3 {
		t.Fatalf("completions = %v", order)
	}
	if order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("expected OOO completion [1 3 2], got %v", order)
	}
}

func TestPerIDOrderKeptUnderReorder(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 0, Reorder: true})
	var order []string
	r.m.Read(1, 0x0, 4, 2, BurstIncr, func(ReadResult) { order = append(order, "1a") })
	r.m.Read(1, 0x10, 4, 2, BurstIncr, func(ReadResult) { order = append(order, "1b") })
	r.m.Read(1, 0x20, 4, 2, BurstIncr, func(ReadResult) { order = append(order, "1c") })
	r.run(t, 500)
	want := []string{"1a", "1b", "1c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("per-ID order violated: %v", order)
		}
	}
}

func TestIndependentReadWriteChannels(t *testing.T) {
	// A long read burst must not block a short write issued after it.
	r := newRig(MemoryConfig{Latency: 0})
	var order []string
	r.m.Read(0, 0x0, 4, 64, BurstIncr, func(ReadResult) { order = append(order, "read") })
	r.m.Write(0, 0x400, 4, BurstIncr, []byte{1, 2, 3, 4}, func(Resp) { order = append(order, "write") })
	r.run(t, 1000)
	if len(order) != 2 || order[0] != "write" {
		t.Fatalf("write did not overtake long read on its own channel: %v", order)
	}
}

func TestExclusivePairSucceeds(t *testing.T) {
	r := newRig(MemoryConfig{Exclusive: true})
	var rd Resp
	r.m.ReadExclusive(5, 0x100, 4, 1, BurstIncr, func(res ReadResult) { rd = res.Resp })
	r.run(t, 100)
	if rd != RespEXOKAY {
		t.Fatalf("exclusive read resp = %v", rd)
	}
	var wr Resp
	r.m.WriteExclusive(5, 0x100, 4, BurstIncr, []byte{9, 9, 9, 9}, func(resp Resp) { wr = resp })
	r.run(t, 100)
	if wr != RespEXOKAY {
		t.Fatalf("exclusive write resp = %v", wr)
	}
}

func TestExclusiveFailsAfterInterveningWrite(t *testing.T) {
	r := newRig(MemoryConfig{Exclusive: true})
	r.m.ReadExclusive(5, 0x100, 4, 1, BurstIncr, nil)
	r.run(t, 100)
	// Intervening normal write from another ID.
	r.m.Write(6, 0x100, 4, BurstIncr, []byte{7, 7, 7, 7}, nil)
	r.run(t, 100)
	var wr Resp = 0xFF
	r.m.WriteExclusive(5, 0x100, 4, BurstIncr, []byte{9, 9, 9, 9}, func(resp Resp) { wr = resp })
	r.run(t, 100)
	if wr != RespOKAY {
		t.Fatalf("failed exclusive should be OKAY, got %v", wr)
	}
	// The exclusive write must not have taken effect.
	var got []byte
	r.m.Read(1, 0x100, 4, 1, BurstIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 100)
	if !bytes.Equal(got, []byte{7, 7, 7, 7}) {
		t.Fatalf("failed exclusive write modified memory: %v", got)
	}
}

func TestCheckerCatchesViolations(t *testing.T) {
	c := NewChecker()
	c.OnR(RBeat{ID: 1, Last: true}) // R without AR
	if len(c.Errs()) == 0 {
		t.Fatal("orphan R not caught")
	}
	c2 := NewChecker()
	c2.OnAR(ARBeat{ID: 1, Len: 1})   // 2 beats
	c2.OnR(RBeat{ID: 1, Last: true}) // early last
	if len(c2.Errs()) == 0 {
		t.Fatal("early RLAST not caught")
	}
	c3 := NewChecker()
	c3.OnW(WBeat{Last: true}) // W without AW
	if len(c3.Errs()) == 0 {
		t.Fatal("orphan W not caught")
	}
	c4 := NewChecker()
	c4.OnAW(AWBeat{ID: 2})
	c4.OnB(BBeat{ID: 2}) // B before W data
	if len(c4.Errs()) == 0 {
		t.Fatal("early B not caught")
	}
	c5 := NewChecker()
	c5.OnAR(ARBeat{ID: 0})
	c5.OnR(RBeat{ID: 0, Resp: RespEXOKAY, Last: true}) // EXOKAY w/o lock
	if len(c5.Errs()) == 0 {
		t.Fatal("spurious EXOKAY not caught")
	}
}

func TestManyOutstandingMixedTraffic(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 1, Reorder: true, Exclusive: true})
	rng := sim.NewRNG(7)
	done := 0
	const n = 60
	for i := 0; i < n; i++ {
		id := rng.Intn(4)
		addr := uint64(rng.Intn(64)) * 8
		if rng.Bool(0.5) {
			beats := rng.Range(1, 8)
			r.m.Read(id, addr, 4, beats, BurstIncr, func(ReadResult) { done++ })
		} else {
			beats := rng.Range(1, 8)
			data := make([]byte, 4*beats)
			rng.Read(data)
			r.m.Write(id, addr, 4, BurstIncr, data, func(Resp) { done++ })
		}
	}
	r.run(t, 10000)
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	if r.m.Issued() != n || r.m.Completed() != n {
		t.Fatalf("counters: issued=%d completed=%d", r.m.Issued(), r.m.Completed())
	}
}
