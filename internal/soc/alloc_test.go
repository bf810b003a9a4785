package soc

import (
	"testing"

	"gonoc/internal/ip"
)

// ipAllocCeilings bounds the IP-side allocations per socket on the
// quiet Fig 1 SoC: issue is one 16 B write plus one 16 B read through
// Socket.Issue, gen is one write/read-back pair through the generator,
// each run to completion (engines, NIUs and fabric included; they
// allocate nothing, so what remains is the protocol masters, their
// memories and the IP above them). The ceilings are the counts when
// the eight adapters became the only IP-side callers of the masters;
// an adapter that grows a closure per transaction breaks them. Pooled
// request contexts should take them towards zero.
var ipAllocCeilings = map[string]struct{ issue, gen float64 }{
	"axi":  {44, 44},
	"ocp":  {42, 42},
	"ahb":  {23, 22},
	"pvci": {25, 25},
	"bvci": {18, 17},
	"avci": {33, 33},
	"prop": {38, 125},
	"wb":   {18, 17},
}

func TestIPAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, name := range Masters(true) {
		t.Run(name, func(t *testing.T) {
			ceil := ipAllocCeilings[name]
			s := quietFig1(Crossbar)
			sock := s.Sockets()[name]
			addr := genRegion(name).Base
			k, busy, failed := 0, false, false
			done := ip.Done(func(_ []byte, err bool) { busy, failed = false, failed || err })
			run := func(write bool) {
				busy = true
				sock.Issue(k, write, addr, 16, done)
				k++
				for c := 0; busy && c < 100_000; c++ {
					s.Clk.RunCycles(1)
				}
			}
			n := testing.AllocsPerRun(50, func() { run(true); run(false) })
			if busy || failed {
				t.Fatalf("issue: transaction %d failed or hung", k)
			}
			if n > ceil.issue {
				t.Errorf("issue: a 16 B write and read allocate %.0f objects, ceiling %.0f", n, ceil.issue)
			}

			s = quietFig1(Crossbar)
			g := ip.NewGen(s.Clk, s.Sockets()[name], ip.GenConfig{Seed: 1, Requests: 1 << 20, Region: genRegion(name)})
			n = testing.AllocsPerRun(50, func() {
				c := g.Stats().Completed
				for i := 0; g.Stats().Completed == c && i < 100_000; i++ {
					s.Clk.RunCycles(1)
				}
			})
			if st := g.Stats(); st.Completed != 51 || st.Mismatches != 0 || st.Errors != 0 {
				t.Fatalf("gen: %d pairs, %d mismatches, %d errors; want 51 clean pairs", st.Completed, st.Mismatches, st.Errors)
			}
			if n > ceil.gen {
				t.Errorf("gen: a write/read-back pair allocates %.0f objects, ceiling %.0f", n, ceil.gen)
			}
		})
	}
}
