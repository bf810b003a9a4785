package ocp

import (
	"bytes"
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

type rig struct {
	k     *sim.Kernel
	clk   *sim.Clock
	m     *Master
	mem   *Memory
	store *mem.Backing
}

func newRig(cfg MemoryConfig) *rig {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "clk", sim.Nanosecond, 0)
	port := NewPort(clk, "ocp", 4)
	store := mem.NewBacking(1 << 20)
	return &rig{
		k: k, clk: clk, store: store,
		m:   NewMaster(clk, port),
		mem: NewMemory(clk, port, store, 0, cfg),
	}
}

func (r *rig) run(t *testing.T, maxCycles int) {
	t.Helper()
	for c := 0; c < maxCycles; c++ {
		if !r.m.Busy() {
			return
		}
		r.clk.RunCycles(1)
	}
	if r.m.Busy() {
		t.Fatalf("OCP transactions stuck (outstanding=%d)", r.m.Outstanding())
	}
}

func TestNonPostedWriteReadBack(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 1, Threads: 1})
	want := []byte{10, 20, 30, 40}
	var wr SResp
	r.m.WriteNonPosted(0, 0x100, 4, SeqIncr, want, nil, func(s SResp) { wr = s })
	r.run(t, 200)
	if wr != RespDVA {
		t.Fatalf("WRNP resp = %v", wr)
	}
	var got []byte
	r.m.Read(0, 0x100, 4, 1, SeqIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v", got)
	}
}

func TestPostedWriteCompletesOnAcceptance(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 50, Threads: 1}) // slow memory
	accepted := false
	r.m.Write(0, 0x40, 4, SeqIncr, []byte{1, 2, 3, 4}, nil, func() { accepted = true })
	// Posted write requires no response: master goes idle as soon as the
	// beats are accepted, long before the memory commits.
	for c := 0; c < 20 && r.m.Busy(); c++ {
		r.clk.RunCycles(1)
	}
	if !accepted {
		t.Fatal("posted write not accepted quickly")
	}
	if r.m.Outstanding() != 0 {
		t.Fatal("posted write left an outstanding response")
	}
	// The data still lands eventually.
	for c := 0; c < 200; c++ {
		r.clk.RunCycles(1)
	}
	var got []byte
	r.m.Read(0, 0x40, 4, 1, SeqIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 500)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("posted write never committed: %v", got)
	}
}

func TestBurstRead(t *testing.T) {
	r := newRig(MemoryConfig{Threads: 1})
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(0x80 + i)
	}
	r.m.WriteNonPosted(0, 0x200, 4, SeqIncr, data, nil, nil)
	r.run(t, 300)
	var got []byte
	r.m.Read(0, 0x200, 4, 8, SeqIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 300)
	if !bytes.Equal(got, data) {
		t.Fatal("burst read mismatch")
	}
}

func TestThreadsCompleteIndependently(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 0, Threads: 2})
	var order []int
	// Thread 0: long burst. Thread 1: short read issued after.
	r.m.Read(0, 0x0, 4, 16, SeqIncr, func(ReadResult) { order = append(order, 0) })
	r.m.Read(1, 0x100, 4, 1, SeqIncr, func(ReadResult) { order = append(order, 1) })
	r.run(t, 1000)
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("thread 1 did not overtake thread 0: %v", order)
	}
}

func TestWithinThreadOrderKept(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 2, Threads: 2})
	var order []string
	r.m.Read(0, 0x0, 4, 4, SeqIncr, func(ReadResult) { order = append(order, "a") })
	r.m.Read(0, 0x10, 4, 1, SeqIncr, func(ReadResult) { order = append(order, "b") })
	r.m.Read(0, 0x20, 4, 2, SeqIncr, func(ReadResult) { order = append(order, "c") })
	r.run(t, 1000)
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("within-thread order violated: %v", order)
	}
}

func TestLazySynchronizationSuccess(t *testing.T) {
	r := newRig(MemoryConfig{Threads: 2, LazySync: true})
	var rd ReadResult
	r.m.ReadLinked(0, 0x100, 4, func(res ReadResult) { rd = res })
	r.run(t, 100)
	if rd.Resp != RespDVA {
		t.Fatalf("RDL resp = %v", rd.Resp)
	}
	var wr SResp
	r.m.WriteConditional(0, 0x100, 4, []byte{1, 1, 1, 1}, func(s SResp) { wr = s })
	r.run(t, 100)
	if wr != RespDVA {
		t.Fatalf("WRC resp = %v, want DVA", wr)
	}
}

func TestLazySynchronizationFailure(t *testing.T) {
	r := newRig(MemoryConfig{Threads: 2, LazySync: true})
	r.m.ReadLinked(0, 0x100, 4, nil)
	r.run(t, 100)
	// Thread 1 writes the same location: thread 0's reservation dies.
	r.m.WriteNonPosted(1, 0x100, 4, SeqIncr, []byte{9, 9, 9, 9}, nil, nil)
	r.run(t, 100)
	var wr SResp
	r.m.WriteConditional(0, 0x100, 4, []byte{1, 1, 1, 1}, func(s SResp) { wr = s })
	r.run(t, 100)
	if wr != RespFAIL {
		t.Fatalf("WRC after intervening write = %v, want FAIL", wr)
	}
	// Failed WRC must not write.
	var got []byte
	r.m.Read(1, 0x100, 4, 1, SeqIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 100)
	if !bytes.Equal(got, []byte{9, 9, 9, 9}) {
		t.Fatalf("failed WRC modified memory: %v", got)
	}
}

func TestLazySyncDisabledFails(t *testing.T) {
	r := newRig(MemoryConfig{Threads: 1, LazySync: false})
	r.m.ReadLinked(0, 0x100, 4, nil)
	r.run(t, 100)
	var wr SResp
	r.m.WriteConditional(0, 0x100, 4, []byte{1, 1, 1, 1}, func(s SResp) { wr = s })
	r.run(t, 100)
	if wr != RespFAIL {
		t.Fatalf("WRC with LazySync disabled = %v, want FAIL", wr)
	}
}

func TestStreamingBurst(t *testing.T) {
	r := newRig(MemoryConfig{Threads: 1})
	// STRM write: all beats to one address (FIFO port semantics).
	r.m.WriteNonPosted(0, 0x300, 4, SeqStrm, []byte{1, 0, 0, 0, 2, 0, 0, 0}, nil, nil)
	r.run(t, 200)
	var got []byte
	r.m.Read(0, 0x300, 4, 1, SeqIncr, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200)
	if !bytes.Equal(got, []byte{2, 0, 0, 0}) {
		t.Fatalf("STRM result = %v", got)
	}
}

func TestCounters(t *testing.T) {
	r := newRig(MemoryConfig{Threads: 1})
	r.m.Write(0, 0, 4, SeqIncr, []byte{1, 2, 3, 4}, nil, nil)
	r.m.Read(0, 0, 4, 1, SeqIncr, nil)
	r.run(t, 200)
	if r.m.Issued() != 2 || r.m.Posted() != 1 || r.m.Completed() != 1 {
		t.Fatalf("counters: issued=%d posted=%d completed=%d",
			r.m.Issued(), r.m.Posted(), r.m.Completed())
	}
}

// TestRequestFIFOKeepsOrder issues posted-write and read bursts, half
// of them while earlier beats are still queued, so the request FIFO
// pops from its head and compacts as it refills. Each write's
// completion fires once, in issue order, as its last beat leaves the
// FIFO (the read queued after it is then at the head), and each read
// returns the bytes the write before it posted.
func TestRequestFIFOKeepsOrder(t *testing.T) {
	r := newRig(MemoryConfig{Latency: 1, Threads: 1})
	var done []int
	reads := make([][]byte, 16)
	pattern := func(i int) []byte { return []byte{byte(i), 1, 2, 3, 4, 5, 6, byte(i + 7)} }
	issue := func(i int) {
		addr := uint64(0x400 + 0x10*i)
		r.m.Write(0, addr, 4, SeqIncr, pattern(i), nil, func() {
			if b, ok := r.m.reqQ.Peek(); !ok || b.Cmd != CmdRD || b.Addr != addr {
				t.Errorf("write %d completed with %+v at the FIFO's head", i, b)
			}
			done = append(done, i)
		})
		r.m.Read(0, addr, 4, 2, SeqIncr, func(res ReadResult) { reads[i] = bytes.Clone(res.Data) })
	}
	for i := 0; i < 8; i++ {
		issue(i)
	}
	r.clk.RunCycles(5)
	for i := 8; i < 16; i++ {
		issue(i)
		r.clk.RunCycles(1)
	}
	r.run(t, 2000)
	for i := range reads {
		if len(done) <= i || done[i] != i {
			t.Fatalf("posted completions fired as %v", done)
		}
		if !bytes.Equal(reads[i], pattern(i)) {
			t.Fatalf("read %d returned %v, want %v", i, reads[i], pattern(i))
		}
	}
	if len(done) != len(reads) {
		t.Fatalf("%d posted completions for %d writes", len(done), len(reads))
	}
}
