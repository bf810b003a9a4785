package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadZeroFill(t *testing.T) {
	b := NewBacking(0x1000)
	got := b.Read(0x100, 16)
	for _, v := range got {
		if v != 0 {
			t.Fatalf("unwritten memory not zero: %v", got)
		}
	}
}

func TestWriteReadBack(t *testing.T) {
	b := NewBacking(0x10000)
	data := []byte{1, 2, 3, 4, 5}
	b.Write(0x42, data, nil)
	if got := b.Read(0x42, 5); !bytes.Equal(got, data) {
		t.Fatalf("read back %v", got)
	}
	r, w := b.Accesses()
	if r != 1 || w != 1 {
		t.Fatalf("access counts %d/%d", r, w)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	b := NewBacking(0x10000)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	addr := uint64(pageSize - 32) // straddles the first page boundary
	b.Write(addr, data, nil)
	if got := b.Read(addr, 64); !bytes.Equal(got, data) {
		t.Fatal("cross-page write corrupted")
	}
}

func TestByteEnables(t *testing.T) {
	b := NewBacking(0x1000)
	b.Write(0x10, []byte{0xAA, 0xBB, 0xCC, 0xDD}, nil)
	b.Write(0x10, []byte{0x11, 0x22, 0x33, 0x44}, []byte{0xFF, 0, 0, 0xFF})
	want := []byte{0x11, 0xBB, 0xCC, 0x44}
	if got := b.Read(0x10, 4); !bytes.Equal(got, want) {
		t.Fatalf("BE write = %v, want %v", got, want)
	}
}

func TestBounds(t *testing.T) {
	b := NewBacking(0x100)
	if !b.InBounds(0xFF, 1) || b.InBounds(0xFF, 2) {
		t.Fatal("InBounds edge wrong")
	}
	if b.InBounds(^uint64(0), 8) {
		t.Fatal("wrap-around accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds read did not panic")
		}
	}()
	b.Read(0x100, 1)
}

func TestUnboundedBacking(t *testing.T) {
	b := NewBacking(0)
	b.Write(1<<40, []byte{7}, nil)
	if got := b.Read(1<<40, 1); got[0] != 7 {
		t.Fatal("unbounded write lost")
	}
}

func TestBadBELengthPanics(t *testing.T) {
	b := NewBacking(0x100)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched BE length did not panic")
		}
	}()
	b.Write(0, []byte{1, 2}, []byte{0xFF})
}

// Property: a write followed by a read of the same span returns the
// written bytes (with full enables), regardless of page alignment.
func TestQuickWriteReadIdentity(t *testing.T) {
	b := NewBacking(1 << 20)
	prop := func(addrRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 512 {
			data = data[:512]
		}
		addr := uint64(addrRaw) % (1<<20 - 512)
		b.Write(addr, data, nil)
		return bytes.Equal(b.Read(addr, len(data)), data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A burst lands beat by beat at Burst.Addr less the memory's base, one
// Write per beat through that beat's enables, and reads back the same
// way.
func TestBurstWrapsThroughEnables(t *testing.T) {
	b := NewBacking(0x1000)
	// WRAP4 of 2-byte beats from 0x106 in the window [0x100, 0x108),
	// mapped at 0x100: beats at 6, 0, 2 and 4.
	wrap := Burst{Wrap: 4}
	b.WriteBurst([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xFF, 0xFF, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0}, wrap, 0x106, 0x100, 2)
	if got, want := b.Read(0, 8), []byte{0, 4, 5, 6, 7, 0, 1, 2}; !bytes.Equal(got, want) {
		t.Fatalf("memory after the burst = % x, want % x", got, want)
	}
	got := make([]byte, 8)
	b.ReadBurst(got, wrap, 0x106, 0x100, 2)
	if want := []byte{1, 2, 0, 4, 5, 6, 7, 0}; !bytes.Equal(got, want) {
		t.Fatalf("burst read = % x, want % x", got, want)
	}
	if r, w := b.Accesses(); r != 5 || w != 4 {
		t.Fatalf("access counts %d/%d, want one per beat (5/4)", r, w)
	}
}

// TestRememberedPage: reads and writes that alternate between pages, or
// read an unwritten page before writing it, see every byte written. A
// read that finds no page must not be remembered as that page, or the
// write after it would land nowhere.
func TestRememberedPage(t *testing.T) {
	b := NewBacking(0)
	a, c := uint64(0x10), uint64(3*pageSize+0x20)
	if got := b.Read(c, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("unwritten page read %v", got)
	}
	b.Write(c, []byte{5, 6, 7, 8}, nil)
	if got := b.Read(c, 4); !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Fatalf("write after a missed read lost: %v", got)
	}
	b.Write(a, []byte{1, 2}, nil)
	b.Write(c+2, []byte{9}, nil)
	if got := b.Read(a, 2); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("first page reads %v", got)
	}
	if got := b.Read(c, 4); !bytes.Equal(got, []byte{5, 6, 9, 8}) {
		t.Fatalf("second page reads %v", got)
	}
	if got := b.Read(pageSize, 2); !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("untouched page reads %v", got)
	}
	if len(b.pages) != 2 {
		t.Fatalf("%d pages made, want 2", len(b.pages))
	}
}
