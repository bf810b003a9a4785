package niu

import (
	"bytes"
	"testing"

	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
)

// fullPipeSocket drives one master NIU's socket pipes directly: push
// offers a one-beat 4-byte read, pop takes one response beat's data.
type fullPipeSocket struct {
	eng  *MasterEngine
	push func(addr uint64) bool
	pop  func() ([]byte, bool)
}

// fullPipeSockets: the five sockets of the shared single-channel
// adapter, and the AXI R and OCP response streams. Every response pipe
// holds 4 beats.
var fullPipeSockets = []struct {
	name  string
	build func(f *fab) fullPipeSocket
}{
	{"ahb", func(f *fab) fullPipeSocket {
		port := ahb.NewPort(f.clk, "m.ahb", 4)
		return fullPipeSocket{
			eng:  NewAHBMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool { return port.Req.Push(ahb.Req{Addr: addr, Size: 4, Burst: ahb.BurstSingle}) },
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
		}
	}},
	{"pvci", func(f *fab) fullPipeSocket {
		port := vci.NewPPort(f.clk, "m.pvci", 4)
		return fullPipeSocket{
			eng:  NewPVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool { return port.Req.Push(vci.PReq{Addr: addr, N: 4}) },
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
		}
	}},
	{"bvci", func(f *fab) fullPipeSocket {
		port := vci.NewBPort(f.clk, "m.bvci", 4)
		return fullPipeSocket{
			eng:  NewBVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool { return port.Req.Push(vci.BReq{Op: vci.OpRead, Addr: addr, Size: 4, Beats: 1}) },
			pop:  func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
		}
	}},
	{"avci", func(f *fab) fullPipeSocket {
		port := vci.NewAPort(f.clk, "m.avci", 4)
		return fullPipeSocket{
			eng: NewAVCIMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool {
				return port.Req.Push(vci.AReq{BReq: vci.BReq{Op: vci.OpRead, Addr: addr, Size: 4, Beats: 1}})
			},
			pop: func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
		}
	}},
	{"wb", func(f *fab) fullPipeSocket {
		port := wishbone.NewPort(f.clk, "m.wb", 4)
		return fullPipeSocket{
			eng: NewWBMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool {
				return port.Req.Push(wishbone.Cycle{Addr: addr, Size: 4, Beats: 1, CTI: wishbone.Classic})
			},
			pop: func() ([]byte, bool) { r, ok := port.Rsp.Pop(); return r.Data, ok },
		}
	}},
	{"axi", func(f *fab) fullPipeSocket {
		port := axi.NewPort(f.clk, "m.axi", 4)
		return fullPipeSocket{
			eng:  NewAXIMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool { return port.AR.Push(axi.ARBeat{Addr: addr, Size: 4, Burst: axi.BurstIncr}) },
			pop:  func() ([]byte, bool) { r, ok := port.R.Pop(); return r.Data, ok },
		}
	}},
	{"ocp", func(f *fab) fullPipeSocket {
		port := ocp.NewPort(f.clk, "m.ocp", 4)
		return fullPipeSocket{
			eng: NewOCPMaster(f.clk, f.net, f.amap, port, masterCfg(1)).MasterEngine,
			push: func(addr uint64) bool {
				return port.Req.Push(ocp.ReqBeat{Cmd: ocp.CmdRD, Addr: addr, Size: 4, BurstLen: 1, Seq: ocp.SeqIncr, Last: true})
			},
			pop: func() ([]byte, bool) { r, ok := port.Resp.Pop(); return r.Data, ok },
		}
	}},
}

// TestReadDataSurvivesFullPipe guards each master adapter's read
// buffers against reuse while a response still sits in a full socket
// pipe. The socket's reader pops nothing until the NIU has received
// every response, so the response pipe fills and the adapter queues
// the rest; only then does it pop them, and each must still carry its
// own bytes. (TestReadDataOwnership's masters pop every response the
// cycle after it is pushed, so it cannot see a ring one buffer short.)
func TestReadDataSurvivesFullPipe(t *testing.T) {
	const reads, off = 12, 0x100
	for _, sock := range fullPipeSockets {
		t.Run(sock.name, func(t *testing.T) {
			f := newFab(2, 1, 2)
			s := sock.build(f)
			f.attachAXISlave(2)
			want := make([]byte, 4*reads)
			for i := range want {
				want[i] = byte(i*13 + 1)
			}
			f.store.Write(off, want, nil)

			for i := 0; i < reads; f.clk.RunCycles(1) {
				if s.push(memBase + off + uint64(4*i)) {
					i++
				}
			}
			f.run(t, 10_000, func() bool { return s.eng.Stats().Completed == reads })
			f.clk.RunCycles(10) // the response pipe fills

			for i := 0; i < reads; i++ {
				var got []byte
				f.run(t, 100, func() bool {
					var ok bool
					got, ok = s.pop()
					return ok
				})
				if exp := want[4*i : 4*i+4]; !bytes.Equal(got, exp) {
					t.Fatalf("read %d returned % x, want % x", i, got, exp)
				}
			}
		})
	}
}
