package phys

import (
	"bytes"
	"testing"
	"testing/quick"

	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

func testLinkSetup(width, stages, bufDepth int) (*sim.Kernel, *sim.Clock, *sim.Pipe[transport.Flit], *sim.Pipe[transport.Flit], *Link) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "clk", sim.Nanosecond, 0)
	src := sim.NewPipe[transport.Flit](clk, "src", bufDepth)
	dst := sim.NewPipe[transport.Flit](clk, "dst", bufDepth)
	l := NewLink(clk, "l", LinkConfig{WidthBytes: width, PipelineStages: stages}, src, dst)
	return k, clk, src, dst, l
}

func TestLinkFullWidthOneFlitPerCycle(t *testing.T) {
	_, clk, src, dst, _ := testLinkSetup(8, 0, 16)
	for i := 0; i < 10; i++ {
		src.Push(transport.Flit{PktID: uint64(i), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	}
	var got []transport.Flit
	for c := 0; c < 40 && len(got) < 10; c++ {
		clk.RunCycles(1)
		for {
			f, ok := dst.Pop()
			if !ok {
				break
			}
			got = append(got, f)
		}
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d/10 flits", len(got))
	}
	for i, f := range got {
		if f.PktID != uint64(i) {
			t.Fatalf("reorder at %d: pkt#%d", i, f.PktID)
		}
	}
}

func TestLinkSerializationSlowdown(t *testing.T) {
	// 8-byte flits over a 2-byte link: 4 cycles per flit.
	run := func(width int) uint64 {
		_, clk, src, dst, l := testLinkSetup(width, 0, 64)
		const n = 16
		for i := 0; i < n; i++ {
			src.Push(transport.Flit{PktID: uint64(i), Data: make([]byte, 8)})
		}
		for c := 0; c < 1000 && l.Stats().Flits < n; c++ {
			clk.RunCycles(1)
			for {
				if _, ok := dst.Pop(); !ok {
					break
				}
			}
		}
		if l.Stats().Flits != n {
			t.Fatalf("width %d: delivered %d flits", width, l.Stats().Flits)
		}
		return l.Stats().BusyCycles
	}
	full := run(8)
	half := run(4)
	quarter := run(2)
	if half != 2*full || quarter != 4*full {
		t.Fatalf("serialization cost not proportional: full=%d half=%d quarter=%d", full, half, quarter)
	}
}

func TestLinkPipelineLatency(t *testing.T) {
	arrival := func(stages int) int64 {
		_, clk, src, dst, _ := testLinkSetup(8, stages, 16)
		src.Push(transport.Flit{PktID: 1, Data: make([]byte, 8)})
		for c := int64(0); c < 100; c++ {
			clk.RunCycles(1)
			if _, ok := dst.Pop(); ok {
				return clk.Cycle()
			}
		}
		t.Fatal("flit never arrived")
		return 0
	}
	base := arrival(0)
	deep := arrival(5)
	if deep != base+5 {
		t.Fatalf("pipeline stages added %d cycles, want 5", deep-base)
	}
}

func TestLinkDataIntegrity(t *testing.T) {
	_, clk, src, dst, _ := testLinkSetup(3, 2, 16) // deliberately awkward width
	payload := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	src.Push(transport.Flit{PktID: 7, Head: true, Tail: true, Data: payload})
	var got *transport.Flit
	for c := 0; c < 100 && got == nil; c++ {
		clk.RunCycles(1)
		if f, ok := dst.Pop(); ok {
			got = &f
		}
	}
	if got == nil {
		t.Fatal("flit lost")
	}
	if !bytes.Equal(got.Data, payload) || !got.Head || !got.Tail || got.PktID != 7 {
		t.Fatalf("flit corrupted: %+v", got)
	}
}

func TestLinkEmptyFlit(t *testing.T) {
	_, clk, src, dst, _ := testLinkSetup(4, 0, 8)
	src.Push(transport.Flit{PktID: 1, Head: true, Tail: true})
	delivered := false
	for c := 0; c < 50 && !delivered; c++ {
		clk.RunCycles(1)
		if f, ok := dst.Pop(); ok {
			if len(f.Data) != 0 {
				t.Fatalf("empty flit grew data: %v", f.Data)
			}
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("empty flit lost")
	}
}

// Property: serialize produces phits that concatenate back to the input.
func TestQuickSerializeRoundTrip(t *testing.T) {
	prop := func(data []byte, widthRaw uint8) bool {
		width := int(widthRaw%16) + 1
		f := transport.Flit{Data: data}
		var out []byte
		phits := serialize(f, width)
		for i, ph := range phits {
			if (i == 0) != ph.First || (i == len(phits)-1) != ph.Last {
				return false
			}
			if len(ph.Data) > width {
				return false
			}
			out = append(out, ph.Data...)
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncFifoCrossing(t *testing.T) {
	k := sim.NewKernel()
	fast := sim.NewClock(k, "fast", sim.Nanosecond, 0)   // producer: 1 GHz
	slow := sim.NewClock(k, "slow", 3*sim.Nanosecond, 0) // consumer: 333 MHz
	fifo := NewAsyncFifo[int](k, "cdc", 8, 2, slow)

	var got []int
	next := 0
	fast.Register(sim.ClockedFunc{OnEval: func(c int64) {
		if next < 20 && fifo.CanPush() {
			fifo.Push(next)
			next++
		}
	}})
	slow.Register(sim.ClockedFunc{OnEval: func(c int64) {
		if v, ok := fifo.Pop(); ok {
			got = append(got, v)
		}
	}})
	fast.Start()
	slow.Start()
	k.RunUntil(500 * sim.Nanosecond)

	if len(got) != 20 {
		t.Fatalf("received %d/20 values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("CDC reordered or lost data: %v", got)
		}
	}
}

func TestAsyncFifoSyncDelay(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "c", 2*sim.Nanosecond, 0)
	fifo := NewAsyncFifo[int](k, "cdc", 4, 3, clk)
	fifo.Push(42)
	// 3 sync stages at 2ns = 6ns: not visible before.
	if fifo.CanPop() {
		t.Fatal("value visible before synchronization")
	}
	k.RunUntil(5 * sim.Nanosecond)
	if fifo.CanPop() {
		t.Fatal("value visible too early")
	}
	k.RunUntil(6 * sim.Nanosecond)
	if v, ok := fifo.Pop(); !ok || v != 42 {
		t.Fatalf("Pop = %d,%v after sync delay", v, ok)
	}
}

// TestAsyncFifoCreditTurnaround pins the credit semantics to sim.Pipe's
// rule: a slot freed by Pop is not reusable by CanPush at the same
// kernel instant — the credit crosses back to the producer and becomes
// visible at its next evaluation.
func TestAsyncFifoCreditTurnaround(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "c", sim.Nanosecond, 0)
	fifo := NewAsyncFifo[int](k, "cdc", 1, 1, clk)
	if !fifo.Push(42) {
		t.Fatal("push to empty fifo failed")
	}
	if fifo.CanPush() {
		t.Fatal("CanPush true on a full fifo")
	}
	k.RunUntil(1 * sim.Nanosecond)
	if v, ok := fifo.Pop(); !ok || v != 42 {
		t.Fatalf("Pop = %d,%v", v, ok)
	}
	if fifo.CanPush() {
		t.Fatal("slot freed by Pop reusable in the same instant (zero-latency credit)")
	}
	k.RunUntil(2 * sim.Nanosecond)
	if !fifo.CanPush() {
		t.Fatal("credit not returned after the pop instant")
	}
	if !fifo.Push(43) {
		t.Fatal("push after credit return failed")
	}
}

func TestAsyncFifoBackpressure(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "c", sim.Nanosecond, 0)
	fifo := NewAsyncFifo[int](k, "cdc", 2, 1, clk)
	if !fifo.Push(1) || !fifo.Push(2) {
		t.Fatal("pushes to empty fifo failed")
	}
	if fifo.Push(3) {
		t.Fatal("push to full fifo succeeded")
	}
	s := fifo.Stats()
	if s.Pushes != 2 || s.MaxOcc != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLinkUtilizationStats(t *testing.T) {
	_, clk, src, dst, l := testLinkSetup(8, 0, 8)
	src.Push(transport.Flit{Data: make([]byte, 8)})
	for c := 0; c < 20; c++ {
		clk.RunCycles(1)
		dst.Pop()
	}
	s := l.Stats()
	if s.Flits != 1 || s.Bytes != 8 {
		t.Fatalf("stats = %+v", s)
	}
	if u := s.Utilization(); u <= 0 || u >= 1 {
		t.Fatalf("utilization = %f", u)
	}
	if l.CyclesPerFlit(8) != 1 || l.CyclesPerFlit(9) != 2 || l.CyclesPerFlit(0) != 1 {
		t.Fatal("CyclesPerFlit wrong")
	}
}

// TestAsyncFifoStorageReuse pins the head-index ring behaviour: a
// sustained push/pop stream reuses the backing array instead of letting
// the live window creep forward and force repeated reallocation.
func TestAsyncFifoStorageReuse(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "c", sim.Nanosecond, 0)
	fifo := NewAsyncFifo[int](k, "cdc", 8, 1, clk)
	clk.Start()
	sent, got := 0, 0
	for got < 10000 {
		if fifo.CanPush() {
			fifo.Push(sent)
			sent++
		}
		k.RunUntil(k.Now() + sim.Nanosecond)
		for v, ok := fifo.Pop(); ok; v, ok = fifo.Pop() {
			if v != got {
				t.Fatalf("value %d out of order (want %d)", v, got)
			}
			got++
		}
	}
	if c := cap(fifo.buf); c > 16 {
		t.Fatalf("backing array grew to %d entries for a depth-8 FIFO: storage is not being reused", c)
	}
}
