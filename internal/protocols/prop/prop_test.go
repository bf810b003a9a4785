package prop

import (
	"bytes"
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

type rig struct {
	clk *sim.Clock
	m   *Master
}

func newRig() *rig {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "clk", sim.Nanosecond, 0)
	port := NewPort(clk, "prop", 4)
	store := mem.NewBacking(1 << 20)
	NewMemory(clk, port, store, 0)
	return &rig{clk: clk, m: NewMaster(clk, port)}
}

func (r *rig) run(t *testing.T, maxCycles int) {
	t.Helper()
	for c := 0; c < maxCycles; c++ {
		if !r.m.Busy() {
			return
		}
		r.clk.RunCycles(1)
	}
	t.Fatal("prop streams stuck")
}

func TestStreamWriteRead(t *testing.T) {
	r := newRig()
	data := make([]byte, 100) // 7 chunks, last partial
	for i := range data {
		data[i] = byte(i ^ 0x5A)
	}
	ok := false
	r.m.StreamWrite(1, 0x1000, data, func(o bool) { ok = o })
	r.run(t, 500)
	if !ok {
		t.Fatal("stream write not acked")
	}
	var got []byte
	r.m.StreamRead(2, 0x1000, 100, func(d []byte) { got = bytes.Clone(d) })
	r.run(t, 500)
	if !bytes.Equal(got, data) {
		t.Fatal("stream round trip failed")
	}
}

func TestAckCoalescing(t *testing.T) {
	r := newRig()
	// 9 chunks: acks at 4, 8 (partial) and 9 (final) = 3 acks for 9 chunks.
	data := make([]byte, 9*ChunkBytes)
	r.m.StreamWrite(1, 0x0, data, nil)
	r.run(t, 500)
	// The master validated ack chunk accounting internally (it panics on
	// mismatch); reaching here with Busy()==false is the assertion.
	if r.m.Completed() != 1 {
		t.Fatal("write stream not completed")
	}
}

func TestConcurrentReadAndWriteStreams(t *testing.T) {
	r := newRig()
	wdata := make([]byte, 64)
	for i := range wdata {
		wdata[i] = byte(i)
	}
	// Preload read region via a first write stream.
	r.m.StreamWrite(1, 0x2000, wdata, nil)
	r.run(t, 500)

	var got []byte
	wrOK := false
	r.m.StreamWrite(3, 0x3000, wdata, func(o bool) { wrOK = o })
	r.m.StreamRead(4, 0x2000, 64, func(d []byte) { got = bytes.Clone(d) })
	r.run(t, 500)
	if !wrOK || !bytes.Equal(got, wdata) {
		t.Fatal("concurrent streams failed")
	}
}

func TestDuplicateStreamIDPanics(t *testing.T) {
	r := newRig()
	r.m.StreamRead(1, 0, 16, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate stream ID not rejected")
		}
	}()
	r.m.StreamRead(1, 0x100, 16, nil)
}

func TestDescriptorChunks(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{1, 1}, {16, 1}, {17, 2}, {64, 4}, {100, 7},
	}
	for _, c := range cases {
		d := Descriptor{Bytes: c.bytes}
		if d.Chunks() != c.want {
			t.Errorf("Chunks(%d) = %d, want %d", c.bytes, d.Chunks(), c.want)
		}
	}
}

func TestQueuedStreamsServeInTurn(t *testing.T) {
	r := newRig()
	a := make([]byte, 32)
	b := make([]byte, 32)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	done := 0
	r.m.StreamWrite(1, 0x100, a, func(bool) { done++ })
	// Same direction: must queue behind stream 1.
	r.m.StreamWrite(2, 0x200, b, func(bool) { done++ })
	r.run(t, 1000)
	if done != 2 {
		t.Fatalf("completed %d/2 streams", done)
	}
}
