package soc

import (
	"testing"

	"gonoc/internal/ip"
)

// roundTrip issues one 16 B write and then one 16 B read through
// Socket.Issue, each run to completion. Its completion is bound once.
type roundTrip struct {
	s            *System
	busy, failed bool
	done         ip.Done
}

func newRoundTrip(s *System) *roundTrip {
	r := &roundTrip{s: s}
	r.done = func(_ []byte, err bool) { r.busy, r.failed = false, r.failed || err }
	return r
}

// run performs the pair as transaction k at addr and reports whether
// both completed without error.
func (r *roundTrip) run(sock ip.Socket, k int, addr uint64) bool {
	for _, write := range [2]bool{true, false} {
		r.busy = true
		sock.Issue(k, write, addr, 16, r.done)
		for c := 0; r.busy && c < 100_000; c++ {
			r.s.Clk.RunCycles(1)
		}
		if r.busy {
			return false
		}
	}
	return !r.failed
}

// TestIPAllocCeilings pins the IP side of every socket of the quiet
// Fig 1 SoC at zero allocations per transaction in steady state: issue
// is one 16 B write plus one 16 B read through Socket.Issue, gen is one
// write/read-back pair through the generator, each run to completion
// through the protocol masters, NIUs, fabric and memories. The
// generator first runs warmPairs pairs, so its random addresses have
// touched its region's pages of the sparse backing store and every free
// list and buffer has grown to what a pair needs.
func TestIPAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const warmPairs = 100
	for _, name := range Masters(true) {
		t.Run(name, func(t *testing.T) {
			s := quietFig1(Crossbar)
			sock := s.Sockets()[name]
			rt := newRoundTrip(s)
			k, ok := 0, true
			n := testing.AllocsPerRun(50, func() {
				ok = ok && rt.run(sock, k, genRegion(name).Base)
				k++
			})
			if !ok {
				t.Fatalf("issue: transaction pair %d failed or hung", k)
			}
			if n != 0 {
				t.Errorf("issue: a 16 B write and read allocate %.0f objects, want 0", n)
			}

			s = quietFig1(Crossbar)
			g := ip.NewGen(s.Clk, s.Sockets()[name], ip.GenConfig{Seed: 1, Requests: 1 << 20, Region: genRegion(name)})
			pair := func() {
				c := g.Stats().Completed
				for i := 0; g.Stats().Completed == c && i < 100_000; i++ {
					s.Clk.RunCycles(1)
				}
			}
			for i := 0; i < warmPairs; i++ {
				pair()
			}
			n = testing.AllocsPerRun(50, pair)
			if st := g.Stats(); st.Completed != warmPairs+51 || st.Mismatches != 0 || st.Errors != 0 {
				t.Fatalf("gen: %d pairs, %d mismatches, %d errors; want %d clean pairs", st.Completed, st.Mismatches, st.Errors, warmPairs+51)
			}
			if n != 0 {
				t.Errorf("gen: a write/read-back pair allocates %.0f objects, want 0", n)
			}
		})
	}
}

// BenchmarkSocketRoundTrip measures the protocol layer end to end: one
// op is one 16 B write and one 16 B read through Socket.Issue on each
// of the eight sockets of the quiet Fig 1 crossbar SoC, each run to
// completion. CI guards allocs/op at zero (BENCH_transport.json).
func BenchmarkSocketRoundTrip(b *testing.B) {
	s := quietFig1(Crossbar)
	socks := s.Sockets()
	names := Masters(true)
	rt := newRoundTrip(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if !rt.run(socks[name], i, genRegion(name).Base) {
				b.Fatalf("%s: transaction pair %d failed or hung", name, i)
			}
		}
	}
}
