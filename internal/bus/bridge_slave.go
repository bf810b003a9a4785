package bus

import (
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
)

// Slave-side bridges: the bus's AHB reference socket on one side, a
// foreign-socket target IP on the other (Fig 2's lower row of bridges).
// Like their master-side cousins they serialize (one transaction in
// flight) and add conversion latency in both directions.

// AXISlaveBridge puts an AXI target IP behind the bus.
type AXISlaveBridge struct {
	cfg     BridgeConfig
	busPort *ahb.Port
	eng     *axi.Master
	dq      delayLine
	busy    bool
	stats   BridgeStats
}

// NewAXISlaveBridge creates the bridge and attaches it to the bus at the
// address-map node.
func NewAXISlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *axi.Port, cfg BridgeConfig) *AXISlaveBridge {
	busPort := ahb.NewPort(clk, "sbrg.axi", 2)
	b.AddSlave(node, busPort)
	br := &AXISlaveBridge{
		cfg:     cfg.withDefaults(),
		busPort: busPort,
		eng:     axi.NewMaster(clk, ipPort, nil),
	}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *AXISlaveBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *AXISlaveBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if br.busy {
		return
	}
	req, ok := br.busPort.Req.Peek()
	if !ok {
		return
	}
	br.busPort.Req.Pop()
	br.busy = true
	beats := req.NumBeats()
	burst := axi.BurstIncr
	if req.Burst.Wraps() {
		burst = axi.BurstWrap
	}
	if req.Write {
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Write(0, req.Addr, req.Size, burst, req.Data, func(resp axi.Resp) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.reply(ahb.Rsp{Resp: axiToAHB(resp)})
				})
			})
		})
		return
	}
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(0, req.Addr, req.Size, beats, burst, func(res axi.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.reply(ahb.Rsp{Resp: axiToAHB(res.Resp), Data: res.Data})
			})
		})
	})
}

func (br *AXISlaveBridge) reply(rsp ahb.Rsp) {
	// The bus consumes exactly one response per forwarded request; its
	// pipe has room by construction (single outstanding).
	if !br.busPort.Rsp.Push(rsp) {
		panic("bus: slave bridge response pipe full")
	}
	br.busy = false
	br.stats.Forwarded++
}

func axiToAHB(r axi.Resp) ahb.Resp {
	if r == axi.RespOKAY || r == axi.RespEXOKAY {
		return ahb.RespOkay
	}
	return ahb.RespError
}

// OCPSlaveBridge puts an OCP target IP behind the bus.
type OCPSlaveBridge struct {
	cfg     BridgeConfig
	busPort *ahb.Port
	eng     *ocp.Master
	dq      delayLine
	busy    bool
	stats   BridgeStats
}

// NewOCPSlaveBridge creates the bridge.
func NewOCPSlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *ocp.Port, cfg BridgeConfig) *OCPSlaveBridge {
	busPort := ahb.NewPort(clk, "sbrg.ocp", 2)
	b.AddSlave(node, busPort)
	br := &OCPSlaveBridge{
		cfg:     cfg.withDefaults(),
		busPort: busPort,
		eng:     ocp.NewMaster(clk, ipPort),
	}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *OCPSlaveBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *OCPSlaveBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if br.busy {
		return
	}
	req, ok := br.busPort.Req.Peek()
	if !ok {
		return
	}
	br.busPort.Req.Pop()
	br.busy = true
	seq := ocp.SeqIncr
	if req.Burst.Wraps() {
		seq = ocp.SeqWrap
	}
	if req.Write {
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.WriteNonPosted(0, req.Addr, req.Size, seq, req.Data, func(s ocp.SResp) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.reply(ahb.Rsp{Resp: ocpToAHB(s)})
				})
			})
		})
		return
	}
	beats := req.NumBeats()
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(0, req.Addr, req.Size, beats, seq, func(res ocp.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.reply(ahb.Rsp{Resp: ocpToAHB(res.Resp), Data: res.Data})
			})
		})
	})
}

func (br *OCPSlaveBridge) reply(rsp ahb.Rsp) {
	if !br.busPort.Rsp.Push(rsp) {
		panic("bus: slave bridge response pipe full")
	}
	br.busy = false
	br.stats.Forwarded++
}

func ocpToAHB(s ocp.SResp) ahb.Resp {
	if s == ocp.RespDVA {
		return ahb.RespOkay
	}
	return ahb.RespError
}

// BVCISlaveBridge puts a BVCI target IP behind the bus.
type BVCISlaveBridge struct {
	cfg     BridgeConfig
	busPort *ahb.Port
	eng     *vci.BMaster
	dq      delayLine
	busy    bool
	stats   BridgeStats
}

// NewBVCISlaveBridge creates the bridge.
func NewBVCISlaveBridge(clk *sim.Clock, b *Bus, node noctypes.NodeID, ipPort *vci.BPort, cfg BridgeConfig) *BVCISlaveBridge {
	busPort := ahb.NewPort(clk, "sbrg.bvci", 2)
	b.AddSlave(node, busPort)
	br := &BVCISlaveBridge{
		cfg:     cfg.withDefaults(),
		busPort: busPort,
		eng:     vci.NewBMaster(clk, ipPort, 1),
	}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *BVCISlaveBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *BVCISlaveBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if br.busy {
		return
	}
	req, ok := br.busPort.Req.Peek()
	if !ok {
		return
	}
	br.busPort.Req.Pop()
	br.busy = true
	if req.Write {
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Write(req.Addr, req.Size, req.Data, func(err bool) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.reply(err, nil)
				})
			})
		})
		return
	}
	beats := req.NumBeats()
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(req.Addr, req.Size, beats, req.Burst.Wraps(), func(d []byte, err bool) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.reply(err, d)
			})
		})
	})
}

func (br *BVCISlaveBridge) reply(err bool, data []byte) {
	rsp := ahb.Rsp{Resp: ahb.RespOkay, Data: data}
	if err {
		rsp.Resp = ahb.RespError
	}
	if !br.busPort.Rsp.Push(rsp) {
		panic("bus: slave bridge response pipe full")
	}
	br.busy = false
	br.stats.Forwarded++
}
