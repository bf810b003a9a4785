package niu

import (
	"bytes"
	"fmt"
	"testing"

	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
)

// The cross-protocol pairing matrix: every master socket against every
// slave socket (6x6 including Wishbone), round-tripping writes, reads,
// and error responses through the fabric under a fixed seed. This is the
// engine-neutrality claim tested exhaustively: any master adapter's
// core.Request must execute on any slave adapter.

// matrixOps is a protocol-agnostic face over one master socket: 4-byte
// beats, burst writes and reads, completion with an error flag.
type matrixOps struct {
	write func(addr uint64, data []byte, done func(err bool))
	read  func(addr uint64, beats int, done func(data []byte, err bool))
}

// matrix masters, each building its IP engine + master NIU on node 1.
var matrixMasters = []struct {
	name  string
	build func(f *fab) matrixOps
}{
	{"axi", func(f *fab) matrixOps {
		port := axi.NewPort(f.clk, "m.axi", 4)
		ip := axi.NewMaster(f.clk, port, nil)
		NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
		return matrixOps{
			write: func(addr uint64, data []byte, done func(bool)) {
				ip.Write(0, addr, 4, axi.BurstIncr, data, func(r axi.Resp) { done(r != axi.RespOKAY) })
			},
			read: func(addr uint64, beats int, done func([]byte, bool)) {
				ip.Read(1, addr, 4, beats, axi.BurstIncr, func(res axi.ReadResult) {
					done(res.Data, res.Resp != axi.RespOKAY)
				})
			},
		}
	}},
	{"ocp", func(f *fab) matrixOps {
		port := ocp.NewPort(f.clk, "m.ocp", 4)
		ip := ocp.NewMaster(f.clk, port)
		NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1))
		return matrixOps{
			write: func(addr uint64, data []byte, done func(bool)) {
				ip.WriteNonPosted(0, addr, 4, ocp.SeqIncr, data, nil, func(s ocp.SResp) { done(s != ocp.RespDVA) })
			},
			read: func(addr uint64, beats int, done func([]byte, bool)) {
				ip.Read(0, addr, 4, beats, ocp.SeqIncr, func(res ocp.ReadResult) {
					done(res.Data, res.Resp != ocp.RespDVA)
				})
			},
		}
	}},
	{"ahb", func(f *fab) matrixOps {
		port := ahb.NewPort(f.clk, "m.ahb", 4)
		ip := ahb.NewMaster(f.clk, port, 2)
		NewAHBMaster(f.clk, f.net, f.amap, port, masterCfg(1))
		return matrixOps{
			write: func(addr uint64, data []byte, done func(bool)) {
				ip.Write(addr, 4, ahb.BurstIncr, data, func(r ahb.Resp) { done(r != ahb.RespOkay) })
			},
			read: func(addr uint64, beats int, done func([]byte, bool)) {
				ip.Read(addr, 4, ahb.BurstIncr, beats, func(res ahb.ReadResult) {
					done(res.Data, res.Resp != ahb.RespOkay)
				})
			},
		}
	}},
	{"bvci", func(f *fab) matrixOps {
		port := vci.NewBPort(f.clk, "m.bvci", 4)
		ip := vci.NewBMaster(f.clk, port, 2)
		NewBVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
		return matrixOps{
			write: func(addr uint64, data []byte, done func(bool)) {
				ip.Write(addr, 4, data, nil, false, done)
			},
			read: func(addr uint64, beats int, done func([]byte, bool)) {
				ip.Read(addr, 4, beats, false, done)
			},
		}
	}},
	{"avci", func(f *fab) matrixOps {
		port := vci.NewAPort(f.clk, "m.avci", 4)
		ip := vci.NewAMaster(f.clk, port)
		NewAVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
		return matrixOps{
			write: func(addr uint64, data []byte, done func(bool)) {
				ip.Write(1, addr, 4, data, nil, false, done)
			},
			read: func(addr uint64, beats int, done func([]byte, bool)) {
				ip.Read(2, addr, 4, beats, false, done)
			},
		}
	}},
	{"wb", func(f *fab) matrixOps {
		port := wishbone.NewPort(f.clk, "m.wb", 4)
		ip := wishbone.NewMaster(f.clk, port)
		NewWBMaster(f.clk, f.net, f.amap, port, masterCfg(1))
		return matrixOps{
			write: func(addr uint64, data []byte, done func(bool)) {
				ip.Write(addr, 4, data, wishbone.Incrementing, wishbone.Linear, done)
			},
			read: func(addr uint64, beats int, done func([]byte, bool)) {
				ip.Read(addr, 4, beats, wishbone.Incrementing, wishbone.Linear, done)
			},
		}
	}},
}

// wbErrBase is the start of the Wishbone slave's mapped-but-faulty
// window (see attachment below): transactions landing there come back
// as fabric-borne error responses, exercising every master adapter's
// error encoding end to end.
const wbErrBase = memBase + 0x80000

// matrix slaves, each attaching its memory + slave NIU on node 2.
var matrixSlaves = []struct {
	name   string
	attach func(f *fab)
}{
	{"axi", func(f *fab) {
		port := axi.NewPort(f.clk, "s.axi", 4)
		axi.NewMemory(f.clk, port, f.store, memBase, axi.MemoryConfig{Latency: 1})
		NewAXISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()})
	}},
	{"ocp", func(f *fab) {
		port := ocp.NewPort(f.clk, "s.ocp", 4)
		ocp.NewMemory(f.clk, port, f.store, memBase, ocp.MemoryConfig{Threads: 4})
		NewOCPSlave(f.clk, f.net, port, 4, SlaveConfig{Node: 2, Services: allServices()})
	}},
	{"ahb", func(f *fab) {
		port := ahb.NewPort(f.clk, "s.ahb", 4)
		ahb.NewMemory(f.clk, port, f.store, memBase, ahb.MemoryConfig{WaitStates: 1})
		NewAHBSlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()})
	}},
	{"bvci", func(f *fab) {
		port := vci.NewBPort(f.clk, "s.bvci", 4)
		vci.NewBMemory(f.clk, port, f.store, memBase, 1)
		NewBVCISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()})
	}},
	{"pvci", func(f *fab) {
		port := vci.NewPPort(f.clk, "s.pvci", 8)
		vci.NewPMemory(f.clk, port, f.store, memBase, 0)
		NewPVCISlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()})
	}},
	{"wb", func(f *fab) {
		port := wishbone.NewPort(f.clk, "s.wb", 4)
		wishbone.NewMemory(f.clk, port, f.store, memBase, wishbone.MemoryConfig{
			Latency: 1, RegisteredFeedback: true,
			ErrLo: wbErrBase, ErrHi: wbErrBase + 0x1000,
		})
		NewWBSlave(f.clk, f.net, port, SlaveConfig{Node: 2, Services: allServices()})
	}},
}

// TestPairingMatrix runs every master protocol against every slave
// protocol: a seeded write/read-back round trip, a local decode-error
// response, and — against the Wishbone slave's faulty window — a
// fabric-borne slave-error response.
func TestPairingMatrix(t *testing.T) {
	for _, m := range matrixMasters {
		for _, s := range matrixSlaves {
			m, s := m, s
			t.Run(m.name+"->"+s.name, func(t *testing.T) {
				f := newFab(2, 1, 2)
				ops := m.build(f)
				s.attach(f)

				// Deterministic payload derived from the pair.
				data := make([]byte, 32)
				for i := range data {
					data[i] = byte(i*7) ^ m.name[0] ^ s.name[0]
				}

				// Write + read-back round trip.
				wrDone, wrErr := false, false
				ops.write(memBase+0x100, data, func(err bool) { wrDone, wrErr = true, err })
				f.run(t, 8000, func() bool { return wrDone })
				if wrErr {
					t.Fatalf("%s->%s write errored", m.name, s.name)
				}
				var got []byte
				rdErr := false
				ops.read(memBase+0x100, 8, func(d []byte, err bool) { got, rdErr = bytes.Clone(d), err })
				f.run(t, 8000, func() bool { return got != nil })
				if rdErr {
					t.Fatalf("%s->%s read errored", m.name, s.name)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s->%s read back %x, want %x", m.name, s.name, got, data)
				}

				// Decode error: an unmapped address must come back as a
				// socket-level error from the master NIU.
				deDone, deErr := false, false
				ops.write(0xDEAD_0000, data[:4], func(err bool) { deDone, deErr = true, err })
				f.run(t, 8000, func() bool { return deDone })
				if !deErr {
					t.Fatalf("%s->%s unmapped write did not error", m.name, s.name)
				}
				deDone, deErr = false, false
				ops.read(0xDEAD_0000, 1, func(_ []byte, err bool) { deDone, deErr = true, err })
				f.run(t, 8000, func() bool { return deDone })
				if !deErr {
					t.Fatalf("%s->%s unmapped read did not error", m.name, s.name)
				}

				// Fabric-borne slave error: only the Wishbone slave
				// carries a mapped-but-faulty window.
				if s.name == "wb" {
					feDone, feErr := false, false
					ops.write(wbErrBase, data[:4], func(err bool) { feDone, feErr = true, err })
					f.run(t, 8000, func() bool { return feDone })
					if !feErr {
						t.Fatalf("%s->wb faulty-window write did not error", m.name)
					}
					feDone, feErr = false, false
					ops.read(wbErrBase, 1, func(_ []byte, err bool) { feDone, feErr = true, err })
					f.run(t, 8000, func() bool { return feDone })
					if !feErr {
						t.Fatalf("%s->wb faulty-window read did not error", m.name)
					}
				}
			})
		}
	}
}

// TestSparseByteEnables: an AXI write whose strobes disable some bytes
// leaves those bytes untouched in every burst target's memory, AHB's
// too, whose socket has no enables and so takes one byte write per
// enabled byte. The BVCI and AVCI masters' enables cross their master
// NIUs the same way, into an AXI target.
func TestSparseByteEnables(t *testing.T) {
	const off = 0x100
	old := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xF0, 0xF1, 0xF2}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	strb := []byte{0xFF, 0, 0, 0xFF, 0, 0xFF, 0xFF, 0}
	want := []byte{1, 0xBB, 0xCC, 4, 0xEE, 6, 7, 0xF2}
	check := func(t *testing.T, f *fab, write func(done func(err bool))) {
		f.store.Write(off, old, nil)
		done := false
		write(func(err bool) {
			if err {
				t.Error("write answered an error")
			}
			done = true
		})
		f.run(t, 8000, func() bool { return done })
		got := make([]byte, len(want))
		f.store.ReadInto(off, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("memory holds % x, want % x", got, want)
		}
	}
	for _, s := range burstTargets {
		t.Run(s.name, func(t *testing.T) {
			f := newFab(2, 1, 2)
			port := axi.NewPort(f.clk, "m.axi", 4)
			ip := axi.NewMaster(f.clk, port, nil)
			NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
			s.attach(f)
			check(t, f, func(done func(bool)) {
				ip.WriteStrobed(0, memBase+off, 4, axi.BurstIncr, data, strb, func(r axi.Resp) { done(r != axi.RespOKAY) })
			})
		})
	}
	for _, m := range []struct {
		name   string
		attach func(f *fab) func(done func(bool))
	}{
		{"from-bvci", func(f *fab) func(func(bool)) {
			port := vci.NewBPort(f.clk, "m.bvci", 4)
			ip := vci.NewBMaster(f.clk, port, 2)
			NewBVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
			return func(done func(bool)) { ip.Write(memBase+off, 4, data, strb, false, done) }
		}},
		{"from-avci", func(f *fab) func(func(bool)) {
			port := vci.NewAPort(f.clk, "m.avci", 4)
			ip := vci.NewAMaster(f.clk, port)
			NewAVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
			return func(done func(bool)) { ip.Write(1, memBase+off, 4, data, strb, false, done) }
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			f := newFab(2, 1, 2)
			write := m.attach(f)
			matrixSlaves[0].attach(f) // the AXI target
			check(t, f, write)
		})
	}
}

// TestNoByteEnabled: an AXI write whose strobes disable every byte
// answers OK and leaves every burst target's memory untouched; the AHB
// slave NIU issues no transfer for it at all.
func TestNoByteEnabled(t *testing.T) {
	const off = 0x100
	old := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xF0, 0xF1, 0xF2}
	for _, s := range burstTargets {
		t.Run(s.name, func(t *testing.T) {
			f := newFab(2, 1, 2)
			port := axi.NewPort(f.clk, "m.axi", 4)
			ip := axi.NewMaster(f.clk, port, nil)
			NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1))
			s.attach(f)
			f.store.Write(off, old, nil)
			_, writes := f.store.Accesses()
			var resp axi.Resp = 0xFF
			ip.WriteStrobed(0, memBase+off, 4, axi.BurstIncr, make([]byte, 8), make([]byte, 8), func(r axi.Resp) { resp = r })
			f.run(t, 8000, func() bool { return resp != 0xFF })
			if resp != axi.RespOKAY {
				t.Fatalf("write answered %v, want OKAY", resp)
			}
			got := make([]byte, len(old))
			f.store.ReadInto(off, got)
			if !bytes.Equal(got, old) {
				t.Fatalf("memory holds % x, want % x", got, old)
			}
			if _, w := f.store.Accesses(); s.name == "ahb" && w != writes {
				t.Fatalf("AHB target took %d writes for a write with no byte enabled", w-writes)
			}
		})
	}
}

// TestMatrixCoverage pins the matrix dimensions so a protocol added to
// the repo without joining the matrix fails loudly.
func TestMatrixCoverage(t *testing.T) {
	if len(matrixMasters) != 6 || len(matrixSlaves) != 6 {
		t.Fatalf("pairing matrix is %dx%d, want 6x6",
			len(matrixMasters), len(matrixSlaves))
	}
	seen := map[string]bool{}
	for _, m := range matrixMasters {
		seen["m:"+m.name] = true
	}
	for _, s := range matrixSlaves {
		seen["s:"+s.name] = true
	}
	for _, want := range []string{"m:wb", "s:wb"} {
		if !seen[want] {
			t.Fatal(fmt.Sprintf("wishbone missing from matrix (%s)", want))
		}
	}
}

// TestWBUnexpressibleWrapRefused pins the master adapter's handling of
// wrap bursts whose BTE modulo differs from the beat count: the fabric
// cannot express them (core wraps at Len*Size), so the NIU must answer
// ERR instead of silently executing with the wrong wrap window.
func TestWBUnexpressibleWrapRefused(t *testing.T) {
	f := newFab(2, 1, 2)
	port := wishbone.NewPort(f.clk, "m.wb", 4)
	ip := wishbone.NewMaster(f.clk, port)
	NewWBMaster(f.clk, f.net, f.amap, port, masterCfg(1))
	matrixSlaves[0].attach(f) // AXI slave

	// 8-beat Wrap4: modulo (4 beats) != length (8 beats).
	done, gotErr := false, false
	ip.Read(memBase+0x10, 4, 8, wishbone.Incrementing, wishbone.Wrap4,
		func(_ []byte, err bool) { done, gotErr = true, err })
	f.run(t, 4000, func() bool { return done })
	if !gotErr {
		t.Fatal("unexpressible wrap burst was not refused")
	}

	// Matching modulo still works and wraps correctly.
	want := make([]byte, 16)
	for i := range want {
		want[i] = byte(i + 1)
	}
	wrDone := false
	ip.Write(memBase+0x20, 4, want, wishbone.Incrementing, wishbone.Linear, func(bool) { wrDone = true })
	f.run(t, 4000, func() bool { return wrDone })
	var got []byte
	ip.Read(memBase+0x28, 4, 4, wishbone.Incrementing, wishbone.Wrap4,
		func(d []byte, _ bool) { got = bytes.Clone(d) })
	f.run(t, 4000, func() bool { return got != nil })
	wantWrap := append(append([]byte(nil), want[8:]...), want[:8]...)
	if !bytes.Equal(got, wantWrap) {
		t.Fatalf("wrap4 read %x, want %x", got, wantWrap)
	}
}
