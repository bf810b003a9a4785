package vci

import (
	"bytes"
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

func newClk() *sim.Clock {
	k := sim.NewKernel()
	return sim.NewClock(k, "clk", sim.Nanosecond, 0)
}

func TestPVCIWriteReadBack(t *testing.T) {
	clk := newClk()
	port := NewPPort(clk, "pvci", 2)
	store := mem.NewBacking(1 << 16)
	m := NewPMaster(clk, port)
	NewPMemory(clk, port, store, 0, 1)

	var wrErr = true
	m.Write(0x40, []byte{0xDE, 0xAD, 0xBE, 0xEF}, func(err bool) { wrErr = err })
	for c := 0; c < 100 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if wrErr {
		t.Fatal("PVCI write errored")
	}
	var got []byte
	m.Read(0x40, 4, func(data []byte, err bool) { got = bytes.Clone(data) })
	for c := 0; c < 100 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if !bytes.Equal(got, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Fatalf("PVCI read back %v", got)
	}
}

func TestPVCISingleOutstanding(t *testing.T) {
	clk := newClk()
	port := NewPPort(clk, "pvci", 8)
	store := mem.NewBacking(1 << 16)
	m := NewPMaster(clk, port)
	NewPMemory(clk, port, store, 0, 5)

	var order []int
	for i := 0; i < 3; i++ {
		i := i
		m.Read(uint64(i*4), 4, func([]byte, bool) { order = append(order, i) })
	}
	for c := 0; c < 500 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("PVCI completions: %v", order)
	}
	if m.Issued() != 3 || m.Completed() != 3 {
		t.Fatal("counters wrong")
	}
}

func TestPVCIByteEnables(t *testing.T) {
	clk := newClk()
	port := NewPPort(clk, "pvci", 2)
	store := mem.NewBacking(1 << 16)
	m := NewPMaster(clk, port)
	NewPMemory(clk, port, store, 0, 0)

	m.Write(0x10, []byte{0x11, 0x22, 0x33, 0x44}, nil)
	for c := 0; c < 50 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	// Partial write via BE using the raw port convention.
	store.Write(0x10, []byte{0xAA, 0, 0, 0xBB}, []byte{0xFF, 0, 0, 0xFF})
	var got []byte
	m.Read(0x10, 4, func(d []byte, _ bool) { got = bytes.Clone(d) })
	for c := 0; c < 50 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if !bytes.Equal(got, []byte{0xAA, 0x22, 0x33, 0xBB}) {
		t.Fatalf("BE write result %v", got)
	}
}

func TestBVCIBurstRoundTrip(t *testing.T) {
	clk := newClk()
	port := NewBPort(clk, "bvci", 4)
	store := mem.NewBacking(1 << 16)
	m := NewBMaster(clk, port, 2)
	NewBMemory(clk, port, store, 0, 2)

	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(0x40 + i)
	}
	m.Write(0x100, 4, data, nil, false, nil)
	var got []byte
	m.Read(0x100, 4, 8, false, func(d []byte, _ bool) { got = bytes.Clone(d) })
	for c := 0; c < 500 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("BVCI burst round trip failed")
	}
}

func TestBVCIOrdered(t *testing.T) {
	clk := newClk()
	port := NewBPort(clk, "bvci", 8)
	store := mem.NewBacking(1 << 16)
	m := NewBMaster(clk, port, 4)
	NewBMemory(clk, port, store, 0, 1)

	var order []int
	// Long burst first, short after: BVCI must stay in order.
	m.Read(0x0, 4, 16, false, func([]byte, bool) { order = append(order, 0) })
	m.Read(0x100, 4, 1, false, func([]byte, bool) { order = append(order, 1) })
	for c := 0; c < 500 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("BVCI order violated: %v", order)
	}
}

func TestBVCIWrapBurst(t *testing.T) {
	clk := newClk()
	port := NewBPort(clk, "bvci", 4)
	store := mem.NewBacking(1 << 16)
	m := NewBMaster(clk, port, 1)
	NewBMemory(clk, port, store, 0, 0)

	seq := make([]byte, 16)
	for i := range seq {
		seq[i] = byte(i)
	}
	m.Write(0x100, 4, seq, nil, false, nil)
	var got []byte
	m.Read(0x108, 4, 4, true, func(d []byte, _ bool) { got = bytes.Clone(d) })
	for c := 0; c < 300 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	want := append(append([]byte{}, seq[8:]...), seq[:8]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("BVCI wrap = %v, want %v", got, want)
	}
}

func TestAVCIOutOfOrderAcrossIDs(t *testing.T) {
	clk := newClk()
	port := NewAPort(clk, "avci", 8)
	store := mem.NewBacking(1 << 16)
	m := NewAMaster(clk, port)
	NewAMemory(clk, port, store, 0, 0, true)

	var order []int
	m.Read(1, 0x0, 4, 8, false, func([]byte, bool) { order = append(order, 1) })
	m.Read(2, 0x100, 4, 1, false, func([]byte, bool) { order = append(order, 2) })
	m.Read(3, 0x200, 4, 1, false, func([]byte, bool) { order = append(order, 3) })
	for c := 0; c < 500 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if len(order) != 3 {
		t.Fatalf("completions: %v", order)
	}
	if order[1] != 3 || order[2] != 2 {
		t.Fatalf("expected LIFO overtake [1 3 2], got %v", order)
	}
}

func TestAVCIPerIDOrder(t *testing.T) {
	clk := newClk()
	port := NewAPort(clk, "avci", 8)
	store := mem.NewBacking(1 << 16)
	m := NewAMaster(clk, port)
	NewAMemory(clk, port, store, 0, 0, true)

	var order []string
	m.Read(7, 0x0, 4, 2, false, func([]byte, bool) { order = append(order, "a") })
	m.Read(7, 0x10, 4, 2, false, func([]byte, bool) { order = append(order, "b") })
	for c := 0; c < 300 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("AVCI per-ID order violated: %v", order)
	}
}

func TestAVCIWriteReadBack(t *testing.T) {
	clk := newClk()
	port := NewAPort(clk, "avci", 4)
	store := mem.NewBacking(1 << 16)
	m := NewAMaster(clk, port)
	NewAMemory(clk, port, store, 0, 1, false)

	m.Write(4, 0x300, 4, []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil, false, nil)
	var got []byte
	m.Read(4, 0x300, 4, 2, false, func(d []byte, _ bool) { got = bytes.Clone(d) })
	for c := 0; c < 300 && m.Busy(); c++ {
		clk.RunCycles(1)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("AVCI round trip: %v", got)
	}
}

// TestMalformedWritePanics: a burst write that is empty, not a whole
// number of cells, or whose enables do not match its data panics on
// both burst masters, instead of losing bytes.
func TestMalformedWritePanics(t *testing.T) {
	clk := newClk()
	b := NewBMaster(clk, NewBPort(clk, "bvci", 4), 1)
	a := NewAMaster(clk, NewAPort(clk, "avci", 4))
	writes := map[string]func(size uint8, data, be []byte){
		"bvci": func(size uint8, data, be []byte) { b.Write(0x100, size, data, be, false, nil) },
		"avci": func(size uint8, data, be []byte) { a.Write(0, 0x100, size, data, be, false, nil) },
	}
	for _, master := range []string{"bvci", "avci"} {
		for _, tc := range []struct {
			name     string
			size     uint8
			data, be []byte
		}{
			{"partial cell", 4, []byte{1, 2, 3, 4, 5, 6}, nil},
			{"empty", 4, nil, nil},
			{"zero size", 0, []byte{1, 2, 3, 4}, nil},
			{"short enables", 4, []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xFF, 0, 0, 0xFF}},
		} {
			t.Run(master+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%d-byte write at size %d with %d enables accepted", len(tc.data), tc.size, len(tc.be))
					}
				}()
				writes[master](tc.size, tc.data, tc.be)
			})
		}
	}
}
