package niu

import (
	"bytes"
	"fmt"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
)

// burstTargets are the pairing matrix's slaves plus AVCI, whose memory
// no matrix cell reaches.
var burstTargets = append(matrixSlaves[:len(matrixSlaves):len(matrixSlaves)], struct {
	name   string
	attach func(f *fab)
}{"avci", func(f *fab) {
	port := vci.NewAPort(f.clk, "s.avci", 4)
	vci.NewAMemory(f.clk, port, f.store, memBase, 1, false)
	NewAVCISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()})
}})

// TestBurstKindsLandAtBeatAddr drives INCR, FIXED and WRAP bursts of
// every length from an AXI master into every target socket, starting
// one 4-byte beat into the wrap window, and checks each beat against
// the kind's mem.Burst: a read must return the bytes at those
// addresses, and a write must change exactly those bytes (later beats
// of a FIXED burst overwriting earlier ones), leaving the word after
// the window alone.
// A target that cannot express a burst kind must run it beat by beat,
// never at incrementing addresses.
func TestBurstKindsLandAtBeatAddr(t *testing.T) {
	const size = 4
	const base = memBase + 0x1000 // aligned to every wrap window
	const start = base + size     // one beat into the window
	const span = 0x200            // checked bytes, from base
	kinds := []struct {
		name string
		axi  axi.Burst
		rule func(beats int) mem.Burst
	}{
		{"incr", axi.BurstIncr, func(int) mem.Burst { return mem.Burst{} }},
		{"fixed", axi.BurstFixed, func(int) mem.Burst { return mem.Burst{Fixed: true} }},
		{"wrap", axi.BurstWrap, func(beats int) mem.Burst { return mem.Burst{Wrap: beats} }},
	}
	background := func(i int) byte { return byte(i*7 + 3) }
	for _, tgt := range burstTargets {
		for _, k := range kinds {
			for _, beats := range []int{1, 2, 3, 4, 8, 16, 32} {
				for _, write := range []bool{false, true} {
					dir := "read"
					if write {
						dir = "write"
					}
					t.Run(fmt.Sprintf("%s/%s%d/%s", tgt.name, k.name, beats, dir), func(t *testing.T) {
						f := newFab(2, 1, 2)
						port := axi.NewPort(f.clk, "m.axi", 4)
						ip := axi.NewMaster(f.clk, port, nil)
						NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
						tgt.attach(f)

						want := make([]byte, span)
						for i := range want {
							want[i] = background(i)
						}
						f.store.Write(base-memBase, want, nil)
						beatAddr := func(i int) int {
							return int(k.rule(beats).Addr(start, size, i) - base)
						}

						if !write {
							var got []byte
							ip.Read(1, start, size, beats, k.axi, func(r axi.ReadResult) { got = bytes.Clone(r.Data) })
							f.run(t, 8000, func() bool { return got != nil })
							var exp []byte
							for i := 0; i < beats; i++ {
								exp = append(exp, want[beatAddr(i):beatAddr(i)+size]...)
							}
							if !bytes.Equal(got, exp) {
								t.Fatalf("read % x, want % x", got, exp)
							}
							return
						}
						data := make([]byte, beats*size)
						for i := range data {
							data[i] = byte(0x80 + i)
						}
						var resp axi.Resp = 0xFF
						ip.Write(0, start, size, k.axi, data, func(r axi.Resp) { resp = r })
						f.run(t, 8000, func() bool { return resp != 0xFF })
						if resp != axi.RespOKAY {
							t.Fatalf("write answered %v", resp)
						}
						for i := 0; i < beats; i++ {
							copy(want[beatAddr(i):], data[i*size:(i+1)*size])
						}
						if got := f.store.Read(base-memBase, span); !bytes.Equal(got, want) {
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("byte %#x after the write is %#02x, want %#02x", base+uint64(i), got[i], want[i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestSocketBurstMappings pins how each socket's burst encoding maps onto
// mem.Burst, the one address rule every target runs.
func TestSocketBurstMappings(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want mem.Burst
	}{
		{"ahb WRAP4", ahb.Req{Burst: ahb.BurstWrap4}.MemBurst(), mem.Burst{Wrap: 4}},
		{"ahb WRAP8", ahb.Req{Burst: ahb.BurstWrap8}.MemBurst(), mem.Burst{Wrap: 8}},
		{"ahb WRAP16", ahb.Req{Burst: ahb.BurstWrap16}.MemBurst(), mem.Burst{Wrap: 16}},
		{"ahb INCR8", ahb.Req{Burst: ahb.BurstIncr8}.MemBurst(), mem.Burst{}},
		{"wishbone 8 beats at BTE WRAP4", wishbone.Cycle{Beats: 8, CTI: wishbone.Incrementing, BTE: wishbone.Wrap4}.MemBurst(), mem.Burst{Wrap: 4}},
		{"wishbone CONST", wishbone.Cycle{Beats: 4, CTI: wishbone.ConstAddr}.MemBurst(), mem.Burst{Fixed: true}},
		{"ocp STRM", ocp.SeqStrm.MemBurst(4), mem.Burst{Fixed: true}},
		{"ocp WRAP", ocp.SeqWrap.MemBurst(4), mem.Burst{Wrap: 4}},
		{"axi WRAP", axi.BurstWrap.MemBurst(8), mem.Burst{Wrap: 8}},
		{"axi FIXED", axi.BurstFixed.MemBurst(8), mem.Burst{Fixed: true}},
		{"bvci wrap", vci.BReq{Beats: 8, Wrap: true}.MemBurst(), mem.Burst{Wrap: 8}},
		{"bvci incr", vci.BReq{Beats: 8}.MemBurst(), mem.Burst{}},
		{"core INCR", burstOf(&core.Request{Burst: core.BurstIncr, Len: 8}), mem.Burst{}},
		{"core FIXED", burstOf(&core.Request{Burst: core.BurstFixed, Len: 8}), mem.Burst{Fixed: true}},
		{"core WRAP", burstOf(&core.Request{Burst: core.BurstWrap, Len: 8}), mem.Burst{Wrap: 8}},
	} {
		if c.got != c.want {
			t.Errorf("%s maps to %+v, want %+v", c.name, c.got, c.want)
		}
	}
}
