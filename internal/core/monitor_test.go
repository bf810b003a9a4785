package core

import (
	"testing"
	"testing/quick"

	"gonoc/internal/mem"
	"gonoc/internal/noctypes"
)

// The exclusive service's reservation table is mem.Monitor, keyed by
// NoC master as the slave NIU keys it. An exclusive write may take
// effect iff Holds; one that does calls Wrote.

// monitor returns an empty table keyed like the slave NIU's.
func monitor() *mem.Monitor[noctypes.NodeID] { return new(mem.Monitor[noctypes.NodeID]) }

func TestExclusiveBasicSuccess(t *testing.T) {
	m := monitor()
	m.Reserve(1, 0x100, 0x104)
	if !m.Holds(1, 0x100, 0x104) {
		t.Fatal("exclusive write after undisturbed reserve failed")
	}
}

func TestExclusiveFailsWithoutReservation(t *testing.T) {
	m := monitor()
	if m.Holds(1, 0x100, 0x104) {
		t.Fatal("exclusive write without reservation succeeded")
	}
}

func TestExclusiveClearedByInterveningWrite(t *testing.T) {
	m := monitor()
	m.Reserve(1, 0x100, 0x104)
	m.Wrote(0x102, 0x103) // overlapping normal write by anyone
	if m.Holds(1, 0x100, 0x104) {
		t.Fatal("exclusive write succeeded after intervening write")
	}
}

func TestExclusiveUnaffectedByDisjointWrite(t *testing.T) {
	m := monitor()
	m.Reserve(1, 0x100, 0x104)
	m.Wrote(0x200, 0x204)
	if !m.Holds(1, 0x100, 0x104) {
		t.Fatal("disjoint write broke the reservation")
	}
}

func TestExclusiveTwoMastersRace(t *testing.T) {
	// Classic lock acquisition race: both masters read-exclusive, both
	// attempt write-exclusive. Exactly one must win.
	m := monitor()
	m.Reserve(1, 0x100, 0x104)
	m.Reserve(2, 0x100, 0x104)

	win1 := m.Holds(1, 0x100, 0x104)
	if win1 {
		m.Wrote(0x100, 0x104) // winner's write clears others
	}
	win2 := m.Holds(2, 0x100, 0x104)
	if win2 {
		m.Wrote(0x100, 0x104)
	}
	if !win1 || win2 {
		t.Fatalf("race outcome win1=%v win2=%v, want exactly first winner", win1, win2)
	}
}

func TestExclusiveReservationReplaced(t *testing.T) {
	m := monitor()
	m.Reserve(1, 0x100, 0x104)
	m.Reserve(1, 0x200, 0x204) // new reserve replaces old (one monitor/master)
	if m.Holds(1, 0x100, 0x104) {
		t.Fatal("stale reservation honoured")
	}
	if !m.Holds(1, 0x200, 0x204) {
		t.Fatal("fresh reservation not honoured")
	}
}

func TestExclusivePartialCoverage(t *testing.T) {
	m := monitor()
	m.Reserve(1, 0x100, 0x104)
	// Write span exceeding the reservation must fail.
	if m.Holds(1, 0x100, 0x108) {
		t.Fatal("write larger than reservation succeeded")
	}
	// Write inside the reservation is covered.
	if !m.Holds(1, 0x102, 0x103) {
		t.Fatal("covered write failed")
	}
}

// Property: mutual exclusion. Under any interleaving of reserve /
// write-exclusive attempts by N masters over one location, between two
// consecutive reserves by master M, at most one of M's exclusive writes
// succeeds, and no write succeeds while another master's successful write
// intervened since M's reserve.
func TestQuickExclusiveMutualExclusion(t *testing.T) {
	prop := func(ops []uint8) bool {
		m := monitor()
		const lo, hi = 0x100, 0x104
		reserved := map[int]bool{} // master -> has live reservation (shadow model)
		for _, op := range ops {
			master := int(op % 4)
			switch (op / 4) % 2 {
			case 0: // exclusive read (reserve)
				m.Reserve(noID(master), lo, hi)
				reserved[master] = true
			case 1: // exclusive write attempt
				got := m.Holds(noID(master), lo, hi)
				want := reserved[master]
				if got != want {
					return false
				}
				if got {
					m.Wrote(lo, hi)
					// all reservations on the location die
					reserved = map[int]bool{}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceSetUserBits(t *testing.T) {
	r := &Request{Cmd: CmdReadEx, Exclusive: true, Size: 4, Len: 1}
	on := ServiceSet{Exclusive: true}
	off := ServiceSet{Exclusive: false}
	if on.UserBitsFor(r)&UserBitExclusive == 0 {
		t.Fatal("exclusive service enabled but bit clear")
	}
	if off.UserBitsFor(r) != 0 {
		t.Fatal("disabled service set bits")
	}
	plain := &Request{Cmd: CmdRead, Size: 4, Len: 1}
	if on.UserBitsFor(plain) != 0 {
		t.Fatal("non-exclusive request got service bit")
	}
}
