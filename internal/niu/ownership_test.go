package niu

import (
	"bytes"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
)

// slowLatency keeps every target busy long enough that all of a slave
// NIU's MaxConcurrent slots fill while more requests queue behind them.
const slowLatency = 30

// slowSlaves attaches each target socket's memory, with slowLatency,
// behind its slave NIU on node 2.
var slowSlaves = []struct {
	name   string
	attach func(f *fab) *SlaveEngine
}{
	{"axi", func(f *fab) *SlaveEngine {
		port := axi.NewPort(f.clk, "s.axi", 4)
		axi.NewMemory(f.clk, port, f.store, memBase, axi.MemoryConfig{Latency: slowLatency})
		return NewAXISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()}).SlaveEngine
	}},
	{"ocp", func(f *fab) *SlaveEngine {
		port := ocp.NewPort(f.clk, "s.ocp", 4)
		ocp.NewMemory(f.clk, port, f.store, memBase, ocp.MemoryConfig{Threads: 4, Latency: slowLatency})
		return NewOCPSlave(f.clk, f.net, port, 4, SlaveConfig{Node: 2, Services: allServices()}).SlaveEngine
	}},
	{"ahb", func(f *fab) *SlaveEngine {
		port := ahb.NewPort(f.clk, "s.ahb", 4)
		ahb.NewMemory(f.clk, port, f.store, memBase, ahb.MemoryConfig{WaitStates: slowLatency})
		return NewAHBSlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()}).SlaveEngine
	}},
	{"bvci", func(f *fab) *SlaveEngine {
		port := vci.NewBPort(f.clk, "s.bvci", 4)
		vci.NewBMemory(f.clk, port, f.store, memBase, slowLatency)
		return NewBVCISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()}).SlaveEngine
	}},
	{"pvci", func(f *fab) *SlaveEngine {
		port := vci.NewPPort(f.clk, "s.pvci", 8)
		vci.NewPMemory(f.clk, port, f.store, memBase, slowLatency)
		return NewPVCISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()}).SlaveEngine
	}},
	{"wb", func(f *fab) *SlaveEngine {
		port := wishbone.NewPort(f.clk, "s.wb", 4)
		wishbone.NewMemory(f.clk, port, f.store, memBase, wishbone.MemoryConfig{Latency: slowLatency, RegisteredFeedback: true})
		return NewWBSlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()}).SlaveEngine
	}},
}

// TestSlavePayloadOwnership guards the slave side's buffer ownership: a
// request's Data and BE alias the request packet its slot holds, so
// neither packet nor slot may be reused while the target IP can still
// read them — until respond for a non-posted write, and never for a
// posted write, whose data the adapter must copy before Execute
// returns. One master streams back-to-back writes with distinct
// payloads, posted and non-posted mixed (some with all-enabled byte
// enables), into each slave socket while its slow memory keeps every
// slot busy; every byte must read back intact.
func TestSlavePayloadOwnership(t *testing.T) {
	const writes, span = 64, 16
	payload := func(i int) []byte {
		p := make([]byte, span)
		for j := range p {
			p[j] = byte(i*37 + j*11 + 5)
		}
		return p
	}
	for _, sl := range slowSlaves {
		t.Run(sl.name, func(t *testing.T) {
			f := newFab(2, 1, 2)
			slave := sl.attach(f)
			cfg := masterCfg(1)
			cfg.Table = core.TableConfig{MaxOutstanding: 16, MaxTargets: 1}
			m := &scriptMaster{eng: NewMasterEngine(f.net, f.amap, cfg, core.FullyOrdered)}
			m.eng.Bind(f.clk, m)

			posted := 0
			for i := 0; i < writes; {
				if !m.pending {
					req := core.Request{
						Cmd: core.CmdWrite, Addr: memBase + uint64(i*span), Size: 4, Len: span / 4,
						Burst: core.BurstIncr, Data: payload(i),
					}
					if i%3 == 1 {
						req.Cmd, req.Posted = core.CmdWritePost, true
						posted++
					}
					if i%4 == 2 {
						req.BE = bytes.Repeat([]byte{0xFF}, span)
					}
					m.offer(req)
					i++
				}
				f.clk.RunCycles(1)
			}
			f.run(t, 100_000, func() bool { return !m.pending && m.done == writes-posted })
			f.run(t, 100_000, func() bool { return slave.Stats().Requests == writes })
			f.clk.RunCycles(20 * slowLatency) // let the last posted writes commit
			if m.failed != 0 {
				t.Fatalf("%d writes failed", m.failed)
			}
			if m.eng.Stats().StallCycles == 0 {
				t.Fatal("the writes never backed up to the master: the slave's slots were not all busy")
			}

			for i := 0; i < writes; i++ {
				done := m.done
				m.offer(core.Request{Cmd: core.CmdRead, Addr: memBase + uint64(i*span), Size: 4, Len: span / 4, Burst: core.BurstIncr})
				f.run(t, 10_000, func() bool { return m.done > done })
				if want := payload(i); !bytes.Equal(m.got, want) {
					kind := "write"
					if i%3 == 1 {
						kind = "posted write"
					}
					t.Fatalf("%s %d read back %x, want %x", kind, i, m.got, want)
				}
			}
		})
	}
}
