package protocols_test

import (
	"bytes"
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

// memPort drives one protocol memory's port directly: push offers a
// one-beat 4-byte read, pop takes one response beat's data, and full
// reports whether the response pipe holds its capacity.
type memPort struct {
	push func(addr uint64) bool
	pop  func() ([]byte, bool)
	full func() bool
}

// ringMemories: every protocol memory; each reads into a mem.Ring of
// its response pipe's depth. Every pipe holds 4 entries.
var ringMemories = []struct {
	name  string
	build func(clk *sim.Clock, store *mem.Backing) memPort
}{
	{"axi", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := axi.NewPort(clk, "axi", 4)
		axi.NewMemory(clk, port, store, 0, axi.MemoryConfig{Latency: 1})
		return memPort{
			push: func(addr uint64) bool { return port.AR.Push(axi.ARBeat{Addr: addr, Size: 4, Burst: axi.BurstIncr}) },
			pop:  func() ([]byte, bool) { r, ok := port.R.Pop(); return r.Data, ok },
			full: func() bool { return port.R.Len() == port.R.Cap() },
		}
	}},
	{"ocp", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := ocp.NewPort(clk, "ocp", 4)
		ocp.NewMemory(clk, port, store, 0, ocp.MemoryConfig{Latency: 1})
		return memPort{
			push: func(addr uint64) bool {
				return port.Req.Push(ocp.ReqBeat{Cmd: ocp.CmdRD, Addr: addr, Size: 4, BurstLen: 1, Seq: ocp.SeqIncr, Last: true})
			},
			pop:  func() ([]byte, bool) { r, ok := port.Resp.Pop(); return r.Data, ok },
			full: func() bool { return port.Resp.Len() == port.Resp.Cap() },
		}
	}},
	{"ahb", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := ahb.NewPort(clk, "ahb", 4)
		ahb.NewMemory(clk, port, store, 0, ahb.MemoryConfig{WaitStates: 1})
		return memPort{
			push: func(addr uint64) bool { return port.Req.Push(ahb.Req{Addr: addr, Size: 4, Burst: ahb.BurstSingle}) },
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
			full: func() bool { return port.Rsp.Len() == port.Rsp.Cap() },
		}
	}},
	{"bvci", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := vci.NewBPort(clk, "bvci", 4)
		vci.NewBMemory(clk, port, store, 0, 1)
		return memPort{
			push: func(addr uint64) bool { return port.Req.Push(vci.BReq{Op: vci.OpRead, Addr: addr, Size: 4, Beats: 1}) },
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
			full: func() bool { return port.Rsp.Len() == port.Rsp.Cap() },
		}
	}},
	{"wb", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := wishbone.NewPort(clk, "wb", 4)
		wishbone.NewMemory(clk, port, store, 0, wishbone.MemoryConfig{Latency: 1})
		return memPort{
			push: func(addr uint64) bool {
				return port.Req.Push(wishbone.Cycle{Addr: addr, Size: 4, Beats: 1, CTI: wishbone.Classic})
			},
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
			full: func() bool { return port.Rsp.Len() == port.Rsp.Cap() },
		}
	}},
	{"pvci", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := vci.NewPPort(clk, "pvci", 4)
		vci.NewPMemory(clk, port, store, 0, 1)
		return memPort{
			push: func(addr uint64) bool { return port.Req.Push(vci.PReq{Addr: addr, N: 4}) },
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
			full: func() bool { return port.Rsp.Len() == port.Rsp.Cap() },
		}
	}},
	{"avci", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := vci.NewAPort(clk, "avci", 4)
		vci.NewAMemory(clk, port, store, 0, 1, false)
		return memPort{
			push: func(addr uint64) bool {
				return port.Req.Push(vci.AReq{BReq: vci.BReq{Op: vci.OpRead, Addr: addr, Size: 4, Beats: 1}})
			},
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
			full: func() bool { return port.Rsp.Len() == port.Rsp.Cap() },
		}
	}},
	{"prop", func(clk *sim.Clock, store *mem.Backing) memPort {
		port := prop.NewPort(clk, "prop", 4)
		prop.NewMemory(clk, port, store, 0)
		return memPort{
			push: func(addr uint64) bool {
				return port.Desc.Push(prop.Descriptor{Op: prop.OpStreamRead, Addr: addr, Bytes: 4})
			},
			pop:  func() ([]byte, bool) { r, ok := port.Rd.Pop(); return r.Data, ok },
			full: func() bool { return port.Rd.Len() == port.Rd.Cap() },
		}
	}},
}

// TestMemoryReadRingSurvivesFullPipe guards each memory's read ring
// against reuse while a response still sits in a full response pipe.
// The reader queues more reads of distinct words than the pipe holds
// and pops nothing until the pipe is full; then it pops one response
// per cycle while the memory keeps serving the rest, and each response
// must still carry its own word.
func TestMemoryReadRingSurvivesFullPipe(t *testing.T) {
	const reads = 12
	for _, m := range ringMemories {
		t.Run(m.name, func(t *testing.T) {
			clk := sim.NewClock(sim.NewKernel(), "clk", sim.Nanosecond, 0)
			store := mem.NewBacking(1 << 12)
			want := make([]byte, 4*reads)
			for i := range want {
				want[i] = byte(i*13 + 1)
			}
			store.Write(0, want, nil)
			p := m.build(clk, store)

			pushed := 0
			offer := func() {
				if pushed < reads && p.push(uint64(4*pushed)) {
					pushed++
				}
			}
			for cycle := 0; !p.full(); cycle++ {
				if cycle == 1000 {
					t.Fatalf("response pipe never filled (%d reads offered)", pushed)
				}
				offer()
				clk.RunCycles(1)
			}
			if pushed == reads {
				t.Fatalf("all %d reads were queued before the pipe filled; the test needs more", reads)
			}
			for i, idle := 0, 0; i < reads; clk.RunCycles(1) {
				offer()
				got, ok := p.pop()
				if !ok {
					if idle++; idle == 1000 {
						t.Fatalf("response %d never arrived", i)
					}
					continue
				}
				if exp := want[4*i : 4*i+4]; !bytes.Equal(got, exp) {
					t.Fatalf("response %d carries % x, want % x", i, got, exp)
				}
				i, idle = i+1, 0
			}
		})
	}
}

// TestMemoryReadsAllocateNothing: once its ring and queues have grown,
// a protocol memory serves one-word reads without allocating.
func TestMemoryReadsAllocateNothing(t *testing.T) {
	for _, m := range ringMemories {
		t.Run(m.name, func(t *testing.T) {
			clk := sim.NewClock(sim.NewKernel(), "clk", sim.Nanosecond, 0)
			store := mem.NewBacking(1 << 12)
			store.Write(0, make([]byte, 64), nil)
			p := m.build(clk, store)
			read := func() {
				for i := 0; i < 8; i++ {
					for !p.push(uint64(4 * i)) {
						clk.RunCycles(1)
					}
				}
				for n := 0; n < 8; clk.RunCycles(1) {
					if _, ok := p.pop(); ok {
						n++
					}
				}
			}
			read()
			if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
				t.Fatalf("8 reads allocate %.1f objects, want 0", allocs)
			}
		})
	}
}
