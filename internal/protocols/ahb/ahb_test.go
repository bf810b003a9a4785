package ahb

import (
	"bytes"
	"fmt"
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

type rig struct {
	clk   *sim.Clock
	m     *Master
	mem   *Memory
	store *mem.Backing
}

func newRig(pipeline int, cfg MemoryConfig) *rig {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "clk", sim.Nanosecond, 0)
	port := NewPort(clk, "ahb", 4)
	store := mem.NewBacking(1 << 20)
	return &rig{
		clk: clk, store: store,
		m:   NewMaster(clk, port, pipeline),
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
	t.Fatalf("AHB stuck: %d outstanding", r.m.Outstanding())
}

func TestWriteReadBack(t *testing.T) {
	r := newRig(2, MemoryConfig{WaitStates: 1})
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var wr Resp = 0xFF
	r.m.Write(0x100, 4, BurstIncr, want, func(resp Resp) { wr = resp })
	r.run(t, 200)
	if wr != RespOkay {
		t.Fatalf("write resp = %v", wr)
	}
	var got ReadResult
	r.m.Read(0x100, 4, BurstIncr, 2, func(res ReadResult) { got = ReadResult{Data: bytes.Clone(res.Data), Resp: res.Resp} })
	r.run(t, 200)
	if !bytes.Equal(got.Data, want) || got.Resp != RespOkay {
		t.Fatalf("read back %v %v", got.Data, got.Resp)
	}
}

func TestFixedBursts(t *testing.T) {
	r := newRig(1, MemoryConfig{})
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	r.m.Write(0x200, 4, BurstIncr4, data, nil)
	r.run(t, 200)
	var got []byte
	r.m.Read(0x200, 4, BurstIncr4, 0, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 200)
	if !bytes.Equal(got, data) {
		t.Fatal("INCR4 round trip failed")
	}
}

func TestWrap8(t *testing.T) {
	r := newRig(1, MemoryConfig{})
	seq := make([]byte, 32)
	for i := range seq {
		seq[i] = byte(i)
	}
	r.m.Write(0x100, 4, BurstIncr8, seq, nil)
	r.run(t, 300)
	// WRAP8 from 0x110 (middle of the 32-byte window [0x100,0x120)).
	var got []byte
	r.m.Read(0x110, 4, BurstWrap8, 0, func(res ReadResult) { got = bytes.Clone(res.Data) })
	r.run(t, 300)
	want := append(append([]byte{}, seq[16:]...), seq[:16]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("WRAP8 = %v, want %v", got, want)
	}
}

func TestFullyOrderedCompletions(t *testing.T) {
	r := newRig(2, MemoryConfig{WaitStates: 2})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.m.Read(uint64(i*0x10), 4, BurstSingle, 0, func(ReadResult) { order = append(order, i) })
	}
	r.run(t, 1000)
	for i, v := range order {
		if v != i {
			t.Fatalf("AHB completions out of order: %v", order)
		}
	}
}

// TestRetryIsTransparent queues eight writes and eight reads of distinct
// words behind a slave that answers every third transfer with RETRY:
// each must complete in order, and each read with its own word, also
// when a second transfer is pipelined behind the retried one.
func TestRetryIsTransparent(t *testing.T) {
	for _, pipeline := range []int{1, 2} {
		t.Run(fmt.Sprintf("pipeline%d", pipeline), func(t *testing.T) {
			r := newRig(pipeline, MemoryConfig{RetryEvery: 3})
			const n = 8
			wrote, read := 0, 0
			for i := 0; i < n; i++ {
				r.m.Write(uint64(0x100+i*4), 4, BurstSingle, []byte{byte(i + 1), 0, 0, 0}, func(resp Resp) {
					if resp != RespOkay || wrote != i {
						t.Errorf("write %d completed as write %d with %v", i, wrote, resp)
					}
					wrote++
				})
			}
			for i := 0; i < n; i++ {
				r.m.Read(uint64(0x100+i*4), 4, BurstSingle, 0, func(res ReadResult) {
					if want := []byte{byte(i + 1), 0, 0, 0}; read != i || res.Resp != RespOkay || !bytes.Equal(res.Data, want) {
						t.Errorf("read %d completed as read %d with %v %v, want %v", i, read, res.Resp, res.Data, want)
					}
					read++
				})
			}
			r.run(t, 4000)
			if wrote != n || read != n {
				t.Fatalf("completed %d/%d writes and %d/%d reads", wrote, n, read, n)
			}
			if r.m.Retries() == 0 {
				t.Fatal("no retries exercised")
			}
		})
	}
}

func TestLockedSequenceFlags(t *testing.T) {
	r := newRig(1, MemoryConfig{})
	var rd ReadResult
	r.m.ReadLocked(0x100, 4, func(res ReadResult) { rd = res })
	r.run(t, 100)
	if rd.Resp != RespOkay {
		t.Fatalf("locked read resp = %v", rd.Resp)
	}
	var wr Resp
	r.m.WriteUnlock(0x100, 4, []byte{5, 0, 0, 0}, func(resp Resp) { wr = resp })
	r.run(t, 100)
	if wr != RespOkay {
		t.Fatalf("unlock write resp = %v", wr)
	}
}

func TestPipelineDepthLimitsOverlap(t *testing.T) {
	// With pipeline 1, request N+1 is not issued until N answers: total
	// time is strictly larger than with pipeline 2.
	elapsed := func(pipeline int) int64 {
		r := newRig(pipeline, MemoryConfig{WaitStates: 3})
		done := 0
		for i := 0; i < 8; i++ {
			r.m.Read(uint64(i*4), 4, BurstSingle, 0, func(ReadResult) { done++ })
		}
		r.run(t, 2000)
		if done != 8 {
			t.Fatalf("completed %d/8", done)
		}
		return r.clk.Cycle()
	}
	if e1, e2 := elapsed(1), elapsed(2); e2 >= e1 {
		t.Fatalf("pipelining did not help: depth1=%d depth2=%d cycles", e1, e2)
	}
}

func TestBurstBeatsHelper(t *testing.T) {
	cases := []struct {
		b    Burst
		incr int
		want int
	}{
		{BurstSingle, 0, 1}, {BurstIncr, 7, 7}, {BurstIncr, 0, 1},
		{BurstIncr4, 0, 4}, {BurstWrap4, 0, 4},
		{BurstIncr8, 0, 8}, {BurstWrap8, 0, 8},
		{BurstIncr16, 0, 16}, {BurstWrap16, 0, 16},
	}
	for _, c := range cases {
		if got := c.b.Beats(c.incr); got != c.want {
			t.Errorf("%v.Beats(%d) = %d, want %d", c.b, c.incr, got, c.want)
		}
	}
	if !BurstWrap4.Wraps() || BurstIncr4.Wraps() {
		t.Error("Wraps predicate wrong")
	}
}
