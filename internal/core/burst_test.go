package core

import (
	"testing"

	"gonoc/internal/mem"
)

// The transaction layer's burst kinds run at mem.Burst's address rule:
// BurstIncr as the zero Burst, BurstFixed as Fixed and a BurstWrap of
// Len beats as Wrap: Len (the slave NIU's mapping, pinned by
// TestSocketBurstMappings in internal/niu).

func TestBeatAddrIncr(t *testing.T) {
	for i := 0; i < 4; i++ {
		if got := (mem.Burst{}).Addr(0x100, 4, i); got != uint64(0x100+4*i) {
			t.Fatalf("INCR beat %d = %#x", i, got)
		}
	}
}

func TestBeatAddrFixed(t *testing.T) {
	for i := 0; i < 8; i++ {
		if got := (mem.Burst{Fixed: true}).Addr(0x40, 8, i); got != 0x40 {
			t.Fatalf("FIXED beat %d = %#x", i, got)
		}
	}
}

func TestBeatAddrWrap(t *testing.T) {
	// WRAP4, 4-byte beats starting at 0x108 in a 16-byte window [0x100,0x110):
	// 0x108, 0x10C, 0x100, 0x104 (AHB WRAP4 semantics).
	want := []uint64{0x108, 0x10C, 0x100, 0x104}
	for i, w := range want {
		if got := (mem.Burst{Wrap: 4}).Addr(0x108, 4, i); got != w {
			t.Fatalf("WRAP beat %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestBeatAddrWrapAligned(t *testing.T) {
	// Start aligned: wrap never triggers within the burst.
	for i := 0; i < 4; i++ {
		if got := (mem.Burst{Wrap: 4}).Addr(0x100, 4, i); got != uint64(0x100+4*i) {
			t.Fatalf("aligned WRAP beat %d = %#x", i, got)
		}
	}
}

func TestBeatAddrWrapNonPow2DegradesToIncr(t *testing.T) {
	// 3-beat wrap window (12 bytes) is not a power of two: INCR fallback.
	for i := 0; i < 3; i++ {
		if got := (mem.Burst{Wrap: 3}).Addr(0x108, 4, i); got != uint64(0x108+4*i) {
			t.Fatalf("non-pow2 WRAP beat %d = %#x", i, got)
		}
	}
}

func TestBurstSpan(t *testing.T) {
	lo, hi := (mem.Burst{}).Span(0x100, 4, 4)
	if lo != 0x100 || hi != 0x110 {
		t.Fatalf("INCR span = [%#x,%#x)", lo, hi)
	}
	lo, hi = (mem.Burst{Wrap: 4}).Span(0x108, 4, 4)
	if lo != 0x100 || hi != 0x110 {
		t.Fatalf("WRAP span = [%#x,%#x)", lo, hi)
	}
	lo, hi = (mem.Burst{Fixed: true}).Span(0x100, 8, 16)
	if lo != 0x100 || hi != 0x108 {
		t.Fatalf("FIXED span = [%#x,%#x)", lo, hi)
	}
}
