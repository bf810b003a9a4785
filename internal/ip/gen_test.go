package ip

import (
	"testing"

	"gonoc/internal/mem"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
	"gonoc/internal/sim"
)

// The generator is validated here against direct socket connections
// (no interconnect): every write/read-back pair must verify on every
// socket, proving the scoreboard and each adapter sound before they
// judge interconnects.

// direct wires each socket's master engine straight to a memory of the
// same protocol.
var direct = []struct {
	name string
	wire func(clk *sim.Clock, st *mem.Backing) Socket
}{
	{"axi", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := axi.NewPort(clk, "axi", 4)
		m := axi.NewMaster(clk, port, nil)
		axi.NewMemory(clk, port, st, 0, axi.MemoryConfig{Latency: 1})
		return AXI(m)
	}},
	{"ocp", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := ocp.NewPort(clk, "ocp", 4)
		m := ocp.NewMaster(clk, port)
		ocp.NewMemory(clk, port, st, 0, ocp.MemoryConfig{Threads: 4})
		return OCP(m)
	}},
	{"ahb", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := ahb.NewPort(clk, "ahb", 4)
		m := ahb.NewMaster(clk, port, 2)
		ahb.NewMemory(clk, port, st, 0, ahb.MemoryConfig{WaitStates: 1})
		return AHB(m)
	}},
	{"pvci", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := vci.NewPPort(clk, "pvci", 4)
		m := vci.NewPMaster(clk, port)
		vci.NewPMemory(clk, port, st, 0, 1)
		return PVCI(m)
	}},
	{"bvci", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := vci.NewBPort(clk, "bvci", 4)
		m := vci.NewBMaster(clk, port, 2)
		vci.NewBMemory(clk, port, st, 0, 1)
		return BVCI(m)
	}},
	{"avci", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := vci.NewAPort(clk, "avci", 4)
		m := vci.NewAMaster(clk, port)
		vci.NewAMemory(clk, port, st, 0, 1, true)
		return AVCI(m)
	}},
	{"prop", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := prop.NewPort(clk, "prop", 8)
		m := prop.NewMaster(clk, port)
		prop.NewMemory(clk, port, st, 0)
		return Prop(m)
	}},
	{"wb", func(clk *sim.Clock, st *mem.Backing) Socket {
		port := wishbone.NewPort(clk, "wb", 4)
		m := wishbone.NewMaster(clk, port)
		wishbone.NewMemory(clk, port, st, 0, wishbone.MemoryConfig{Latency: 1, RegisteredFeedback: true})
		return WB(m)
	}},
}

func newClk() *sim.Clock {
	k := sim.NewKernel()
	return sim.NewClock(k, "clk", sim.Nanosecond, 0)
}

func region() Region { return Region{Base: 0x1000, Size: 0x4000} }

// directGen puts a generator on socket i of direct, wired to its memory.
func directGen(i int, cfg GenConfig) (*sim.Clock, *Gen) {
	clk := newClk()
	sock := direct[i].wire(clk, mem.NewBacking(1<<20))
	return clk, NewGen(clk, sock, cfg)
}

func runGen(t *testing.T, clk *sim.Clock, g *Gen, maxCycles int) {
	t.Helper()
	for c := 0; c < maxCycles && !g.Done(); c++ {
		clk.RunCycles(1)
	}
	s := g.Stats()
	if !g.Done() {
		t.Fatalf("generator stuck: %d/%d", s.Completed, s.Issued)
	}
	if s.Mismatches != 0 || s.Errors != 0 {
		t.Fatalf("scoreboard: %d mismatches, %d errors", s.Mismatches, s.Errors)
	}
	if s.Latency.Count() == 0 || s.Latency.Mean() <= 0 {
		t.Fatal("no latencies recorded")
	}
}

func TestGenDirect(t *testing.T) {
	for i, d := range direct {
		t.Run(d.name, func(t *testing.T) {
			clk, g := directGen(i, GenConfig{Seed: int64(i + 1), Requests: 25, Region: region()})
			runGen(t, clk, g, 200_000)
		})
	}
}

func TestGenDeterminism(t *testing.T) {
	run := func() float64 {
		clk, g := directGen(0, GenConfig{Seed: 11, Requests: 20, Region: region()})
		for c := 0; c < 100_000 && !g.Done(); c++ {
			clk.RunCycles(1)
		}
		return g.Stats().Latency.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different latencies: %f vs %f", a, b)
	}
}

func TestCheckAll(t *testing.T) {
	clk, g := directGen(0, GenConfig{Seed: 1, Requests: 5, Region: region()})
	gens := map[string]*Gen{"axi": g}
	if err := CheckAll(gens); err == nil {
		t.Fatal("incomplete generator accepted")
	}
	for c := 0; c < 100_000 && !g.Done(); c++ {
		clk.RunCycles(1)
	}
	if err := CheckAll(gens); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAllNamesSameGenerator: with several failing generators,
// CheckAll must report the same one on every call, not whichever map
// iteration happens to reach first.
func TestCheckAllNamesSameGenerator(t *testing.T) {
	_, a := directGen(0, GenConfig{Seed: 1, Requests: 5, Region: region()})
	_, b := directGen(1, GenConfig{Seed: 2, Requests: 5, Region: region()})
	gens := map[string]*Gen{"ocp": b, "axi": a}
	want := CheckAll(gens)
	if want == nil {
		t.Fatal("incomplete generators accepted")
	}
	for i := 0; i < 20; i++ {
		if err := CheckAll(gens); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d reported %v, first call %v", i, err, want)
		}
	}
	if want.Error() != "ip: generator axi incomplete: 0/0" {
		t.Fatalf("reported %q, want the first name in order", want)
	}
}

// TestGenConfigDefaults: a zero Requests performs 50 pairs.
func TestGenConfigDefaults(t *testing.T) {
	clk, g := directGen(0, GenConfig{Seed: 1, Region: region()})
	runGen(t, clk, g, 200_000)
	if s := g.Stats(); s.Completed != 50 || s.Issued != 50 {
		t.Fatalf("zero Requests ran %d/%d pairs, want 50", s.Completed, s.Issued)
	}
}

// delayed is an Initiator that completes every transaction a fixed
// number of cycles after issue, from a clocked component of its own.
type delayed struct {
	clk   *sim.Clock
	delay int64
	mem   map[uint64][]byte
	due   []func()
	at    []int64
}

func (d *delayed) Write(_ int, addr uint64, _ uint8, data []byte, done Done) {
	d.mem[addr] = append([]byte(nil), data...)
	d.due = append(d.due, func() { done(nil, false) })
	d.at = append(d.at, d.clk.Cycle()+d.delay)
}

func (d *delayed) Read(_ int, addr uint64, _ uint8, _ int, done Done) {
	d.due = append(d.due, func() { done(d.mem[addr], false) })
	d.at = append(d.at, d.clk.Cycle()+d.delay)
}

func (d *delayed) Eval(cycle int64) {
	if len(d.at) > 0 && d.at[0] == cycle {
		f := d.due[0]
		d.due, d.at = d.due[1:], d.at[1:]
		f()
	}
}

// TestGenLatencyStamp pins the generator's latency stamp while it
// sleeps through a pair: a completion is stamped with the cycle of the
// generator's last Eval had it run every cycle — the completion's own
// cycle when the completing component comes after the generator in
// registration order, the cycle before when it comes first.
func TestGenLatencyStamp(t *testing.T) {
	for _, tc := range []struct {
		name       string
		first      bool // completer registered before the generator
		wantCycles int64
	}{
		// Issue at cycle 1; write done at 4, read issued then, done at 7.
		{"completer first", true, 5},
		{"generator first", false, 6},
	} {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "clk", sim.Nanosecond, 0)
		d := &delayed{clk: clk, delay: 3, mem: map[uint64][]byte{}}
		if tc.first {
			clk.Register(d)
		}
		g := NewGen(clk, Socket{Initiator: d, width: 4}, GenConfig{Seed: 1, Requests: 1, Region: Region{Size: 64}})
		if !tc.first {
			clk.Register(d)
		}
		clk.RunCycles(20)
		st := g.Stats()
		if st.Completed != 1 || st.Mismatches != 0 || st.Latency.Max() != tc.wantCycles {
			t.Errorf("%s: %d pairs, %d mismatches, latency %d; want 1, 0, %d",
				tc.name, st.Completed, st.Mismatches, st.Latency.Max(), tc.wantCycles)
		}
	}
}
