package bus

import (
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
)

// SlaveBridge puts a foreign-socket target IP behind the bus (Fig 2's
// lower row of bridges). It takes one transaction at a time off its AHB
// socket and replays it on the target through the target's own protocol
// master; that master call is the only part that differs per target.
type SlaveBridge struct {
	crossing
	port *ahb.Port
}

// newSlaveBridge attaches the bridge's AHB socket to bus b at node. The
// caller creates the target's master, sets call, and then registers the
// bridge, so that the master completes earlier in the same cycle.
func newSlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, name string) *SlaveBridge {
	port := ahb.NewPort(clk, name, 2)
	b.AddSlave(node, port)
	return &SlaveBridge{crossing: crossing{clk: clk}, port: port}
}

// Eval implements sim.Clocked.
func (br *SlaveBridge) Eval(cycle int64) {
	if rsp, ok := br.advance(cycle); ok {
		// The bus consumes exactly one response per forwarded request;
		// its pipe has room by construction (single outstanding).
		if !br.port.Rsp.Push(rsp) {
			panic("bus: slave bridge response pipe full")
		}
	}
	if br.busy() {
		return
	}
	if req, ok := br.port.Req.Pop(); ok {
		br.start(cycle, req)
	}
}

// NewAXISlaveBridge puts an AXI target behind the bus at the address-map
// node.
func NewAXISlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *axi.Port) *SlaveBridge {
	br := newSlaveBridge(clk, b, node, "sbrg.axi")
	eng := axi.NewMaster(clk, ipPort, nil)
	wrote := func(r axi.Resp) { br.done(ahb.Rsp{Resp: axiToAHB(r)}) }
	read := func(r axi.ReadResult) { br.done(ahb.Rsp{Resp: axiToAHB(r.Resp), Data: r.Data}) }
	br.call = func(req ahb.Req) {
		burst := axi.BurstIncr
		if req.Burst.Wraps() {
			burst = axi.BurstWrap
		}
		if req.Write {
			eng.Write(0, req.Addr, req.Size, burst, req.Data, wrote)
		} else {
			eng.Read(0, req.Addr, req.Size, req.NumBeats(), burst, read)
		}
	}
	clk.Register(br)
	return br
}

func axiToAHB(r axi.Resp) ahb.Resp {
	if r == axi.RespOKAY || r == axi.RespEXOKAY {
		return ahb.RespOkay
	}
	return ahb.RespError
}

// NewOCPSlaveBridge puts an OCP target behind the bus at the address-map
// node.
func NewOCPSlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *ocp.Port) *SlaveBridge {
	br := newSlaveBridge(clk, b, node, "sbrg.ocp")
	eng := ocp.NewMaster(clk, ipPort)
	wrote := func(s ocp.SResp) { br.done(ahb.Rsp{Resp: ocpToAHB(s)}) }
	read := func(r ocp.ReadResult) { br.done(ahb.Rsp{Resp: ocpToAHB(r.Resp), Data: r.Data}) }
	br.call = func(req ahb.Req) {
		seq := ocp.SeqIncr
		if req.Burst.Wraps() {
			seq = ocp.SeqWrap
		}
		if req.Write {
			eng.WriteNonPosted(0, req.Addr, req.Size, seq, req.Data, nil, wrote)
		} else {
			eng.Read(0, req.Addr, req.Size, req.NumBeats(), seq, read)
		}
	}
	clk.Register(br)
	return br
}

func ocpToAHB(s ocp.SResp) ahb.Resp {
	if s == ocp.RespDVA {
		return ahb.RespOkay
	}
	return ahb.RespError
}

// NewBVCISlaveBridge puts a BVCI target behind the bus at the
// address-map node.
func NewBVCISlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *vci.BPort) *SlaveBridge {
	br := newSlaveBridge(clk, b, node, "sbrg.bvci")
	eng := vci.NewBMaster(clk, ipPort, 1)
	wrote := func(err bool) { br.done(ahb.Rsp{Resp: vciToAHB(err)}) }
	read := func(d []byte, err bool) { br.done(ahb.Rsp{Resp: vciToAHB(err), Data: d}) }
	br.call = func(req ahb.Req) {
		if req.Write {
			eng.Write(req.Addr, req.Size, req.Data, nil, req.Burst.Wraps(), wrote)
		} else {
			eng.Read(req.Addr, req.Size, req.NumBeats(), req.Burst.Wraps(), read)
		}
	}
	clk.Register(br)
	return br
}

func vciToAHB(err bool) ahb.Resp {
	if err {
		return ahb.RespError
	}
	return ahb.RespOkay
}
