package bus

import (
	"bytes"

	"gonoc/internal/core"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
)

// Bridges: a foreign socket on one side, the bus's AHB reference socket
// on the other. A bridge decodes nothing itself: it runs the socket's
// own adapter from internal/niu, the one the socket's NIU runs on the
// NoC, with a crossing as the adapter's far side instead of an NIU
// engine. One adapter per socket, two far sides. Every bridge embodies
// the paper's Fig-2 criticism, and a master bridge's Issue decides each
// loss:
//
//   - one transaction in flight (the reference socket is single-
//     outstanding): AXI/AVCI IDs, OCP threads and prop streams
//     serialize;
//   - posted writes become blocking;
//   - exclusive access and lazy synchronization are not expressible:
//     an exclusive read (an OCP ReadLinked) crosses as a plain read,
//     and an exclusive write (an OCP WriteConditional) is refused
//     without crossing — OKAY on AXI, never EXOKAY, and FAIL on OCP;
//   - FIXED bursts become INCR (ahb.BurstFor);
//   - byte enables are not expressible: a write that disables some of
//     its bytes is refused with an error, and one that disables all of
//     them writes nothing and answers OK;
//   - QoS hints are dropped on the floor;
//   - every crossing costs conversion latency in each direction.

// latency is the conversion cost of a crossing in cycles, charged on the
// way to the far side and again on the way back.
const latency = 2

// crossing is what every bridge shares: the one transaction in flight,
// held in the transaction layer's terms; the call that issues it on the
// far side, whose completion calls done; the conversion latency; and the
// count of transactions that lost a feature crossing the bridge.
type crossing struct {
	clk  *sim.Clock
	call func(*core.Request)

	req   core.Request
	data  []byte // req.Data: the crossing's own copy of the write data
	rsp   core.Response
	phase crossPhase
	at    int64 // cycle the pending step is due

	demoted uint64
}

// crossPhase is where a crossing's transaction is.
type crossPhase uint8

const (
	crossIdle crossPhase = iota
	crossIn              // waiting out the latency to the far side
	crossFar             // the far side holds it
	crossBack            // waiting out the latency back
)

// Demoted counts the transactions that lost a feature crossing the
// bridge (an exclusive, a reservation, a posted write, a FIXED burst's
// address, a write's byte enables).
func (x *crossing) Demoted() uint64 { return x.demoted }

func (x *crossing) busy() bool { return x.phase != crossIdle }

// start puts req in flight; the far side sees it latency cycles later.
func (x *crossing) start(cycle int64, req *core.Request) {
	x.data = append(x.data[:0], req.Data...)
	x.req = *req
	x.req.Data, x.req.BE = x.data, nil
	x.phase, x.at = crossIn, cycle+latency
}

// settle answers the transaction without crossing: the response, of
// status st, is back the next cycle.
func (x *crossing) settle(cycle int64, st core.Status) {
	x.rsp = core.Response{Status: st}
	x.phase, x.at = crossBack, cycle+1
}

// done is the far side's completion: the response crosses back latency
// cycles after the cycle the far side completes in. A completion's read
// data is valid only during the call, so the crossing keeps a copy.
func (x *crossing) done(st core.Status, data []byte) {
	x.rsp = core.Response{Status: st, Data: bytes.Clone(data)}
	x.phase, x.at = crossBack, x.clk.Cycle()+latency
}

// advance runs the step due at cycle. It reports whether the response
// is back, which frees the crossing.
func (x *crossing) advance(cycle int64) bool {
	if x.at > cycle {
		return false
	}
	switch x.phase {
	case crossIn:
		x.phase = crossFar
		x.call(&x.req)
	case crossBack:
		x.phase = crossIdle
		return true
	}
	return false
}

// MasterBridge puts a foreign IP master on the bus: its socket's niu
// master adapter issues into the bridge, whose crossing's far side is an
// AHB master engine on the bus.
type MasterBridge struct {
	crossing
	adapter niu.MasterAdapter
	entry   core.Entry // the transaction in flight, as the adapter issued it
}

// newMasterBridge attaches the bridge's AHB master engine to bus b. The
// engine registers before the bridge (bind), so it completes a
// transaction earlier in the same cycle.
func newMasterBridge(clk *sim.Clock, b *Bus, name string) *MasterBridge {
	port := ahb.NewPort(clk, name, 2)
	b.AddMaster(port)
	eng := ahb.NewMaster(clk, port, 1)
	br := &MasterBridge{crossing: crossing{clk: clk}}
	wrote := func(r ahb.Resp) { br.done(status(r), nil) }
	// A read that comes back short (an error) is zero-padded to its
	// length.
	read := func(r ahb.ReadResult) { br.done(status(r.Resp), padTo(r.Data, br.req.Bytes())) }
	br.call = func(req *core.Request) {
		burst := ahb.BurstFor(req.Burst == core.BurstWrap, int(req.Len))
		if req.Cmd.IsWrite() {
			eng.Write(req.Addr, req.Size, burst, req.Data, wrote)
		} else {
			eng.Read(req.Addr, req.Size, burst, int(req.Len), read)
		}
	}
	return br
}

// bind makes a, built over the bridge, the bridge's socket side, and
// registers the bridge on clk.
func (br *MasterBridge) bind(clk *sim.Clock, a niu.MasterAdapter) *MasterBridge {
	br.adapter = a
	clk.Register(br)
	return br
}

func status(r ahb.Resp) core.Status {
	if r == ahb.RespOkay {
		return core.StOK
	}
	return core.StErrSlave
}

// padTo returns data zero-padded to at least n bytes, in a new slice
// when it pads.
func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data
	}
	return append(data[:len(data):len(data)], make([]byte, n-len(data))...)
}

// Config implements niu.FarSide. The bridge offers the exclusive
// service, so that the adapters hand it their exclusive commands and
// Issue alone decides what becomes of them.
func (br *MasterBridge) Config() niu.MasterConfig {
	return niu.MasterConfig{Services: core.ServiceSet{Exclusive: true}}
}

// Issue implements niu.FarSide. It is Fig 2's one home for feature
// loss: it stalls while a transaction is in flight, refuses an
// exclusive write without crossing, screens byte enables, and crosses
// an exclusive read as a plain read (the bus sets no reservation, and
// the answer is never an exclusive OK), a posted write blocking (the
// bus answers it; the socket hears nothing) and a FIXED burst as INCR.
func (br *MasterBridge) Issue(req *core.Request, protoID int, _ any, cycle int64) niu.IssueResult {
	if br.busy() {
		return niu.IssueStall // one transaction in flight
	}
	br.entry = core.Entry{Cmd: req.Cmd, ProtoID: protoID, Size: req.Size, Len: req.Len}
	disabled := bytes.Count(req.BE, []byte{0})
	switch {
	case req.Cmd == core.CmdWriteEx:
		br.demoted++ // the bus holds no reservation
		br.settle(cycle, core.StExFail)
	case disabled > 0 && disabled == len(req.Data):
		br.settle(cycle, core.StOK) // nothing to write, as on the NoC
	case disabled > 0:
		br.demoted++ // the bus cannot write some of a beat's bytes
		br.settle(cycle, core.StErrSlave)
	default:
		br.start(cycle, req)
		if req.Cmd == core.CmdReadEx || req.Cmd == core.CmdWritePost || req.Burst == core.BurstFixed && req.Len > 1 {
			br.demoted++
		}
	}
	return niu.IssueOK
}

// Eval implements sim.Clocked: the crossing's step, then the adapter's
// three methods in the order an NIU engine calls them.
func (br *MasterBridge) Eval(cycle int64) {
	if br.advance(cycle) && br.entry.Cmd.ExpectsResponse() {
		br.adapter.DeliverResponse(&br.rsp, &br.entry)
	}
	br.adapter.StreamSocket()
	br.adapter.PumpRequests(cycle)
}

// NewAXIBridge puts an AXI IP master on the bus.
func NewAXIBridge(clk *sim.Clock, b *Bus, port *axi.Port) *MasterBridge {
	br := newMasterBridge(clk, b, "brg.axi")
	return br.bind(clk, niu.NewAXIMasterAdapter(br, port))
}

// NewOCPBridge puts an OCP IP master on the bus.
func NewOCPBridge(clk *sim.Clock, b *Bus, port *ocp.Port) *MasterBridge {
	br := newMasterBridge(clk, b, "brg.ocp")
	return br.bind(clk, niu.NewOCPMasterAdapter(br, port))
}

// NewPVCIBridge puts a PVCI IP master on the bus.
func NewPVCIBridge(clk *sim.Clock, b *Bus, port *vci.PPort) *MasterBridge {
	br := newMasterBridge(clk, b, "brg.pvci")
	return br.bind(clk, niu.NewPVCIMasterAdapter(br, port))
}

// NewBVCIBridge puts a BVCI IP master on the bus.
func NewBVCIBridge(clk *sim.Clock, b *Bus, port *vci.BPort) *MasterBridge {
	br := newMasterBridge(clk, b, "brg.bvci")
	return br.bind(clk, niu.NewBVCIMasterAdapter(br, port))
}

// NewAVCIBridge puts an AVCI IP master on the bus.
func NewAVCIBridge(clk *sim.Clock, b *Bus, port *vci.APort) *MasterBridge {
	br := newMasterBridge(clk, b, "brg.avci")
	return br.bind(clk, niu.NewAVCIMasterAdapter(br, port))
}

// NewPropBridge puts a proprietary streaming master on the bus.
func NewPropBridge(clk *sim.Clock, b *Bus, port *prop.Port) *MasterBridge {
	br := newMasterBridge(clk, b, "brg.prop")
	return br.bind(clk, niu.NewPropMasterAdapter(br, port))
}

// SlaveBridge puts a foreign-socket target IP behind the bus (Fig 2's
// lower row of bridges). It takes one transaction at a time off its AHB
// socket and executes it on the target through the target's niu slave
// adapter, the one its slave NIU runs.
type SlaveBridge struct {
	crossing
	port *ahb.Port
}

// newSlaveBridge attaches the bridge's AHB socket to bus b at node.
func newSlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, name string) *SlaveBridge {
	port := ahb.NewPort(clk, name, 2)
	b.AddSlave(node, port)
	return &SlaveBridge{crossing: crossing{clk: clk}, port: port}
}

// bind makes target the crossing's far side and registers the bridge
// on clk, after the target adapter's master engine, so that the engine
// completes earlier in the same cycle.
func (br *SlaveBridge) bind(clk *sim.Clock, target niu.SlaveAdapter) *SlaveBridge {
	respond := func(rsp *core.Response) { br.done(rsp.Status, rsp.Data) }
	br.call = func(req *core.Request) { target.Execute(req, respond) }
	clk.Register(br)
	return br
}

// Eval implements sim.Clocked.
func (br *SlaveBridge) Eval(cycle int64) {
	if br.advance(cycle) {
		rsp := ahb.Rsp{Resp: ahb.RespOkay, Data: br.rsp.Data}
		if !br.rsp.Status.OK() {
			rsp.Resp = ahb.RespError
		}
		// The bus consumes exactly one response per forwarded request;
		// its pipe has room by construction (single outstanding).
		if !br.port.Rsp.Push(rsp) {
			panic("bus: slave bridge response pipe full")
		}
	}
	if br.busy() {
		return
	}
	if r, ok := br.port.Req.Pop(); ok {
		req := core.Request{Cmd: core.CmdRead, Addr: r.Addr, Size: r.Size, Len: uint16(r.NumBeats()),
			Burst: core.BurstIncr, Data: r.Data}
		if r.Write {
			req.Cmd = core.CmdWrite
		}
		if r.Burst.Wraps() {
			req.Burst = core.BurstWrap
		}
		br.start(cycle, &req)
	}
}

// NewAXISlaveBridge puts an AXI target behind the bus at the address-map
// node.
func NewAXISlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *axi.Port) *SlaveBridge {
	br := newSlaveBridge(clk, b, node, "sbrg.axi")
	return br.bind(clk, niu.NewAXISlaveAdapter(clk, ipPort))
}

// NewOCPSlaveBridge puts a single-threaded OCP target behind the bus at
// the address-map node.
func NewOCPSlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *ocp.Port) *SlaveBridge {
	br := newSlaveBridge(clk, b, node, "sbrg.ocp")
	return br.bind(clk, niu.NewOCPSlaveAdapter(clk, ipPort, 1))
}

// NewBVCISlaveBridge puts a BVCI target behind the bus at the
// address-map node.
func NewBVCISlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *vci.BPort) *SlaveBridge {
	br := newSlaveBridge(clk, b, node, "sbrg.bvci")
	return br.bind(clk, niu.NewBVCISlaveAdapter(clk, ipPort))
}
