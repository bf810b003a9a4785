package bus

import (
	"fmt"

	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/sim"
)

// Master-side bridges: a foreign-socket IP master on one side, an AHB
// master engine on the bus side. Every bridge here embodies the paper's
// Fig-2 criticism:
//
//   - one outstanding transaction (the reference socket is single-
//     outstanding): AXI/AVCI out-of-order and OCP threads serialize;
//   - posted writes become blocking;
//   - exclusive access and lazy synchronization are not expressible:
//     AXI exclusives demote (OKAY, never EXOKAY), OCP WriteConditional
//     fails unconditionally;
//   - QoS hints are dropped on the floor;
//   - every crossing costs conversion latency in each direction.

// BridgeConfig parameterizes a bridge.
type BridgeConfig struct {
	// Latency is conversion cycles added in each direction.
	Latency int
}

func (c BridgeConfig) withDefaults() BridgeConfig {
	if c.Latency == 0 {
		c.Latency = 2
	}
	return c
}

// delayLine sequences delayed actions deterministically.
type delayLine struct {
	items []delayedFn
}

type delayedFn struct {
	at int64
	fn func()
}

func (d *delayLine) after(cycle int64, delay int, fn func()) {
	d.items = append(d.items, delayedFn{at: cycle + int64(delay), fn: fn})
}

func (d *delayLine) run(cycle int64) {
	for len(d.items) > 0 && d.items[0].at <= cycle {
		fn := d.items[0].fn
		d.items = d.items[1:]
		fn()
	}
}

// BridgeStats aggregates bridge activity.
type BridgeStats struct {
	Forwarded uint64
	Demoted   uint64 // transactions that lost a feature crossing the bridge
}

// AXIBridge adapts an AXI IP master onto the bus. Like every bridge
// here it maps bursts through ahb.BurstFor, so FIXED (and OCP STRM)
// degrades to INCR — a real bridge feature loss (readers of a FIFO
// register through a bridge get incrementing addresses).
type AXIBridge struct {
	cfg  BridgeConfig
	port *axi.Port
	eng  *ahb.Master
	dq   delayLine

	wQ    []axi.WBeat
	rQ    []bridgedRead
	rBeat int
	bQ    []axi.BBeat
	busy  bool

	stats BridgeStats
}

type bridgedRead struct {
	id    int
	data  []byte
	size  int
	beats int
	resp  axi.Resp
}

// NewAXIBridge creates the bridge, registering its bus master port.
func NewAXIBridge(clk *sim.Clock, b *Bus, port *axi.Port, cfg BridgeConfig) *AXIBridge {
	busPort := ahb.NewPort(clk, "brg.axi", 2)
	b.AddMaster(busPort)
	br := &AXIBridge{cfg: cfg.withDefaults(), port: port, eng: ahb.NewMaster(clk, busPort, 1)}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *AXIBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *AXIBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	// Stream buffered responses to the IP.
	if len(br.rQ) > 0 && br.port.R.CanPush(1) {
		r := &br.rQ[0]
		lo := br.rBeat * r.size
		last := br.rBeat == r.beats-1
		br.port.R.Push(axi.RBeat{ID: r.id, Data: r.data[lo : lo+r.size], Resp: r.resp, Last: last})
		if last {
			br.rQ = br.rQ[1:]
			br.rBeat = 0
		} else {
			br.rBeat++
		}
	}
	if len(br.bQ) > 0 && br.port.B.CanPush(1) {
		br.port.B.Push(br.bQ[0])
		br.bQ = br.bQ[1:]
	}
	if w, ok := br.port.W.Pop(); ok {
		br.wQ = append(br.wQ, w)
	}
	if br.busy {
		return // serialization: ONE outstanding, unlike the NoC NIU
	}
	// Prefer a complete write burst, else a read.
	if aw, ok := br.port.AW.Peek(); ok {
		need := aw.Beats()
		have := -1
		for i, w := range br.wQ {
			if w.Last {
				have = i + 1
				break
			}
		}
		if have == need {
			br.port.AW.Pop()
			data := make([]byte, 0, need*int(aw.Size))
			for i := 0; i < need; i++ {
				data = append(data, br.wQ[i].Data...)
			}
			br.wQ = br.wQ[need:]
			if aw.Lock {
				br.stats.Demoted++ // exclusive write demoted to plain write
			}
			br.busy = true
			id := aw.ID
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.eng.Write(aw.Addr, aw.Size, ahb.BurstFor(aw.Burst == axi.BurstWrap, need), data, func(resp ahb.Resp) {
					br.dq.after(cycle, br.cfg.Latency, func() {
						br.bQ = append(br.bQ, axi.BBeat{ID: id, Resp: ahbToAXI(resp)})
						br.busy = false
						br.stats.Forwarded++
					})
				})
			})
			return
		}
	}
	if ar, ok := br.port.AR.Peek(); ok {
		br.port.AR.Pop()
		if ar.Lock {
			br.stats.Demoted++ // exclusive read demoted
		}
		br.busy = true
		beats := ar.Beats()
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Read(ar.Addr, ar.Size, ahb.BurstFor(ar.Burst == axi.BurstWrap, beats), beats, func(res ahb.ReadResult) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.rQ = append(br.rQ, bridgedRead{
						id: ar.ID, data: padTo(res.Data, beats*int(ar.Size)),
						size: int(ar.Size), beats: beats, resp: ahbToAXI(res.Resp),
					})
					br.busy = false
					br.stats.Forwarded++
				})
			})
		})
	}
}

func ahbToAXI(r ahb.Resp) axi.Resp {
	if r == ahb.RespOkay {
		return axi.RespOKAY
	}
	return axi.RespSLVERR // the bridge cannot distinguish DECERR
}

func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data
	}
	return append(data, make([]byte, n-len(data))...)
}

// OCPBridge adapts an OCP IP master onto the bus: threads collapse into
// one stream, posted writes block, lazy synchronization is refused.
type OCPBridge struct {
	cfg  BridgeConfig
	port *ocp.Port
	eng  *ahb.Master
	dq   delayLine

	asm   map[int]*ocpBridgeAsm
	rspQ  []bridgedOCPRsp
	rBeat int
	busy  bool

	stats BridgeStats
}

type ocpBridgeAsm struct {
	first ocp.ReqBeat
	data  []byte
	beats int
}

type bridgedOCPRsp struct {
	thread int
	data   []byte
	size   int
	beats  int
	resp   ocp.SResp
}

// NewOCPBridge creates the bridge.
func NewOCPBridge(clk *sim.Clock, b *Bus, port *ocp.Port, cfg BridgeConfig) *OCPBridge {
	busPort := ahb.NewPort(clk, "brg.ocp", 2)
	b.AddMaster(busPort)
	br := &OCPBridge{
		cfg: cfg.withDefaults(), port: port,
		eng: ahb.NewMaster(clk, busPort, 1),
		asm: make(map[int]*ocpBridgeAsm),
	}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *OCPBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *OCPBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if len(br.rspQ) > 0 && br.port.Resp.CanPush(1) {
		r := &br.rspQ[0]
		last := br.rBeat == r.beats-1
		beat := ocp.RespBeat{Resp: r.resp, ThreadID: r.thread, Last: last}
		if r.data != nil {
			lo := br.rBeat * r.size
			beat.Data = r.data[lo : lo+r.size]
		}
		br.port.Resp.Push(beat)
		if last {
			br.rspQ = br.rspQ[1:]
			br.rBeat = 0
		} else {
			br.rBeat++
		}
	}
	if br.busy {
		return
	}
	beat, ok := br.port.Req.Peek()
	if !ok {
		return
	}
	a := br.asm[beat.ThreadID]
	if a == nil {
		a = &ocpBridgeAsm{first: beat}
		br.asm[beat.ThreadID] = a
	}
	if !beat.Last {
		br.port.Req.Pop()
		if beat.Cmd.IsWrite() {
			a.data = append(a.data, beat.Data...)
		}
		a.beats++
		return
	}
	// Last beat: convert.
	br.port.Req.Pop()
	delete(br.asm, beat.ThreadID)
	first := a.first
	beats := a.beats + 1
	data := a.data
	if beat.Cmd.IsWrite() {
		data = append(append([]byte(nil), a.data...), beat.Data...)
	}
	thread := first.ThreadID
	size := int(first.Size)

	switch first.Cmd {
	case ocp.CmdWRC:
		// Lazy synchronization cannot cross the bridge: fail closed.
		br.stats.Demoted++
		br.rspQ = append(br.rspQ, bridgedOCPRsp{thread: thread, beats: 1, resp: ocp.RespFAIL})
		return
	case ocp.CmdRDL:
		br.stats.Demoted++ // reservation silently dropped: plain read
	case ocp.CmdWR:
		br.stats.Demoted++ // posted write becomes blocking below
	}

	br.busy = true
	if first.Cmd.IsWrite() {
		posted := first.Cmd == ocp.CmdWR
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Write(first.Addr, first.Size, ahb.BurstFor(first.Seq == ocp.SeqWrap, beats), data, func(resp ahb.Resp) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.busy = false
					br.stats.Forwarded++
					if !posted {
						br.rspQ = append(br.rspQ, bridgedOCPRsp{thread: thread, beats: 1, resp: ocpRespFromAHB(resp)})
					}
				})
			})
		})
		return
	}
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(first.Addr, first.Size, ahb.BurstFor(first.Seq == ocp.SeqWrap, beats), beats, func(res ahb.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.busy = false
				br.stats.Forwarded++
				br.rspQ = append(br.rspQ, bridgedOCPRsp{
					thread: thread, data: padTo(res.Data, beats*size),
					size: size, beats: beats, resp: ocpRespFromAHB(res.Resp),
				})
			})
		})
	})
}

func ocpRespFromAHB(r ahb.Resp) ocp.SResp {
	if r == ahb.RespOkay {
		return ocp.RespDVA
	}
	return ocp.RespERR
}

// AVCIBridge adapts an AVCI master onto the bus, serializing IDs.
type AVCIBridge struct {
	cfg   BridgeConfig
	port  *vci.APort
	eng   *ahb.Master
	dq    delayLine
	rspQ  []vci.ARsp
	busy  bool
	stats BridgeStats
}

// NewAVCIBridge creates the bridge.
func NewAVCIBridge(clk *sim.Clock, b *Bus, port *vci.APort, cfg BridgeConfig) *AVCIBridge {
	busPort := ahb.NewPort(clk, "brg.avci", 2)
	b.AddMaster(busPort)
	br := &AVCIBridge{cfg: cfg.withDefaults(), port: port, eng: ahb.NewMaster(clk, busPort, 1)}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *AVCIBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *AVCIBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if len(br.rspQ) > 0 && br.port.Rsp.CanPush(1) {
		br.port.Rsp.Push(br.rspQ[0])
		br.rspQ = br.rspQ[1:]
	}
	if br.busy {
		return
	}
	areq, ok := br.port.Req.Peek()
	if !ok {
		return
	}
	br.port.Req.Pop()
	br.busy = true
	br.stats.Demoted++ // ID-based reordering lost: strict FIFO
	if areq.Op == vci.OpWrite {
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Write(areq.Addr, areq.Size, ahb.BurstFor(areq.Wrap, areq.Beats), areq.Data, func(resp ahb.Resp) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					out := vci.ARsp{ID: areq.ID}
					out.Err = resp != ahb.RespOkay
					br.rspQ = append(br.rspQ, out)
					br.busy = false
					br.stats.Forwarded++
				})
			})
		})
		return
	}
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(areq.Addr, areq.Size, ahb.BurstFor(areq.Wrap, areq.Beats), areq.Beats, func(res ahb.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				out := vci.ARsp{ID: areq.ID}
				out.Err = res.Resp != ahb.RespOkay
				out.Data = padTo(res.Data, areq.Beats*int(areq.Size))
				br.rspQ = append(br.rspQ, out)
				br.busy = false
				br.stats.Forwarded++
			})
		})
	})
}

// BVCIBridge adapts a BVCI master onto the bus (orderings match; only
// latency is lost).
type BVCIBridge struct {
	cfg   BridgeConfig
	port  *vci.BPort
	eng   *ahb.Master
	dq    delayLine
	rspQ  []vci.BRsp
	busy  bool
	stats BridgeStats
}

// NewBVCIBridge creates the bridge.
func NewBVCIBridge(clk *sim.Clock, b *Bus, port *vci.BPort, cfg BridgeConfig) *BVCIBridge {
	busPort := ahb.NewPort(clk, "brg.bvci", 2)
	b.AddMaster(busPort)
	br := &BVCIBridge{cfg: cfg.withDefaults(), port: port, eng: ahb.NewMaster(clk, busPort, 1)}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *BVCIBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *BVCIBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if len(br.rspQ) > 0 && br.port.Rsp.CanPush(1) {
		br.port.Rsp.Push(br.rspQ[0])
		br.rspQ = br.rspQ[1:]
	}
	if br.busy {
		return
	}
	breq, ok := br.port.Req.Peek()
	if !ok {
		return
	}
	br.port.Req.Pop()
	br.busy = true
	if breq.Op == vci.OpWrite {
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Write(breq.Addr, breq.Size, ahb.BurstFor(breq.Wrap, breq.Beats), breq.Data, func(resp ahb.Resp) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.rspQ = append(br.rspQ, vci.BRsp{Err: resp != ahb.RespOkay})
					br.busy = false
					br.stats.Forwarded++
				})
			})
		})
		return
	}
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(breq.Addr, breq.Size, ahb.BurstFor(breq.Wrap, breq.Beats), breq.Beats, func(res ahb.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.rspQ = append(br.rspQ, vci.BRsp{
					Err:  res.Resp != ahb.RespOkay,
					Data: padTo(res.Data, breq.Beats*int(breq.Size)),
				})
				br.busy = false
				br.stats.Forwarded++
			})
		})
	})
}

// PVCIBridge adapts a PVCI master onto the bus.
type PVCIBridge struct {
	cfg   BridgeConfig
	port  *vci.PPort
	eng   *ahb.Master
	dq    delayLine
	rspQ  []vci.PRsp
	busy  bool
	stats BridgeStats
}

// NewPVCIBridge creates the bridge.
func NewPVCIBridge(clk *sim.Clock, b *Bus, port *vci.PPort, cfg BridgeConfig) *PVCIBridge {
	busPort := ahb.NewPort(clk, "brg.pvci", 2)
	b.AddMaster(busPort)
	br := &PVCIBridge{cfg: cfg.withDefaults(), port: port, eng: ahb.NewMaster(clk, busPort, 1)}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *PVCIBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *PVCIBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if len(br.rspQ) > 0 && br.port.Rsp.CanPush(1) {
		br.port.Rsp.Push(br.rspQ[0])
		br.rspQ = br.rspQ[1:]
	}
	if br.busy {
		return
	}
	preq, ok := br.port.Req.Peek()
	if !ok {
		return
	}
	br.port.Req.Pop()
	br.busy = true
	if preq.Write {
		data := preq.Data
		br.dq.after(cycle, br.cfg.Latency, func() {
			br.eng.Write(preq.Addr, uint8(len(data)), ahb.BurstSingle, data, func(resp ahb.Resp) {
				br.dq.after(cycle, br.cfg.Latency, func() {
					br.rspQ = append(br.rspQ, vci.PRsp{Err: resp != ahb.RespOkay})
					br.busy = false
					br.stats.Forwarded++
				})
			})
		})
		return
	}
	nBytes := preq.N
	if nBytes < 1 || nBytes > 4 {
		nBytes = 4
	}
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(preq.Addr, uint8(nBytes), ahb.BurstSingle, 0, func(res ahb.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.rspQ = append(br.rspQ, vci.PRsp{Err: res.Resp != ahb.RespOkay, Data: res.Data})
				br.busy = false
				br.stats.Forwarded++
			})
		})
	})
}

// PropBridge adapts the proprietary streaming socket onto the bus: one
// stream at a time, one 64-byte burst in flight, acks synthesized by the
// bridge.
type PropBridge struct {
	cfg  BridgeConfig
	port *prop.Port
	eng  *ahb.Master
	dq   delayLine

	wr    *propBridgeWr
	rd    *propBridgeRd
	ackQ  []prop.Ack
	busy  bool
	stats BridgeStats
}

type propBridgeWr struct {
	d       prop.Descriptor
	buf     []byte
	sent    int
	acked   int
	ackPend int
	gotLast bool
}

type propBridgeRd struct {
	d       prop.Descriptor
	issued  int
	got     []byte
	emitted int
}

// NewPropBridge creates the bridge.
func NewPropBridge(clk *sim.Clock, b *Bus, port *prop.Port, cfg BridgeConfig) *PropBridge {
	busPort := ahb.NewPort(clk, "brg.prop", 2)
	b.AddMaster(busPort)
	br := &PropBridge{cfg: cfg.withDefaults(), port: port, eng: ahb.NewMaster(clk, busPort, 1)}
	clk.Register(br)
	return br
}

// Stats returns bridge counters.
func (br *PropBridge) Stats() BridgeStats { return br.stats }

// Eval implements sim.Clocked.
func (br *PropBridge) Eval(cycle int64) {
	br.dq.run(cycle)
	if len(br.ackQ) > 0 && br.port.Ack.CanPush(1) {
		br.port.Ack.Push(br.ackQ[0])
		br.ackQ = br.ackQ[1:]
	}
	if d, ok := br.port.Desc.Pop(); ok {
		switch d.Op {
		case prop.OpStreamWrite:
			if br.wr != nil {
				panic("bus: prop bridge supports one write stream at a time")
			}
			br.wr = &propBridgeWr{d: d}
			br.stats.Demoted++ // concurrency lost vs the socket's contract
		case prop.OpStreamRead:
			if br.rd != nil {
				panic("bus: prop bridge supports one read stream at a time")
			}
			br.rd = &propBridgeRd{d: d}
			br.stats.Demoted++
		}
	}
	if c, ok := br.port.Wr.Pop(); ok {
		if br.wr == nil || c.StreamID != br.wr.d.StreamID {
			panic(fmt.Sprintf("bus: prop bridge chunk for unexpected stream %d", c.StreamID))
		}
		br.wr.buf = append(br.wr.buf, c.Data...)
		br.wr.gotLast = br.wr.gotLast || c.Last
	}
	br.emitReadChunk()
	if br.busy {
		return
	}
	br.issueWrite(cycle)
	if !br.busy {
		br.issueRead(cycle)
	}
}

func (br *PropBridge) issueWrite(cycle int64) {
	st := br.wr
	if st == nil || len(st.buf) == 0 {
		return
	}
	if len(st.buf) < 64 && !st.gotLast {
		return
	}
	sz := len(st.buf)
	if sz > 64 {
		sz = 64
	}
	data := append([]byte(nil), st.buf[:sz]...)
	st.buf = st.buf[sz:]
	addr := st.d.Addr + uint64(st.sent)
	st.sent += sz
	br.busy = true
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Write(addr, 1, ahb.BurstIncr, data, func(resp ahb.Resp) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.busy = false
				br.stats.Forwarded++
				st.acked += sz
				st.ackPend += (sz + prop.ChunkBytes - 1) / prop.ChunkBytes
				done := st.gotLast && len(st.buf) == 0 && st.acked == st.sent
				for st.ackPend >= prop.AckEvery {
					br.ackQ = append(br.ackQ, prop.Ack{StreamID: st.d.StreamID, Chunks: prop.AckEvery, OK: resp == ahb.RespOkay})
					st.ackPend -= prop.AckEvery
				}
				if done {
					br.ackQ = append(br.ackQ, prop.Ack{StreamID: st.d.StreamID, Chunks: st.ackPend, Done: true, OK: resp == ahb.RespOkay})
					br.wr = nil
				}
			})
		})
	})
}

func (br *PropBridge) issueRead(cycle int64) {
	st := br.rd
	if st == nil || st.issued >= st.d.Bytes {
		return
	}
	sz := st.d.Bytes - st.issued
	if sz > 64 {
		sz = 64
	}
	addr := st.d.Addr + uint64(st.issued)
	st.issued += sz
	br.busy = true
	br.dq.after(cycle, br.cfg.Latency, func() {
		br.eng.Read(addr, 1, ahb.BurstIncr, sz, func(res ahb.ReadResult) {
			br.dq.after(cycle, br.cfg.Latency, func() {
				br.busy = false
				br.stats.Forwarded++
				st.got = append(st.got, res.Data...)
			})
		})
	})
}

func (br *PropBridge) emitReadChunk() {
	st := br.rd
	if st == nil || !br.port.Rd.CanPush(1) {
		return
	}
	avail := len(st.got) - st.emitted
	if avail <= 0 {
		return
	}
	isTail := st.emitted+avail == st.d.Bytes
	if avail < prop.ChunkBytes && !isTail {
		return
	}
	sz := avail
	if sz > prop.ChunkBytes {
		sz = prop.ChunkBytes
	}
	last := st.emitted+sz == st.d.Bytes
	br.port.Rd.Push(prop.Chunk{StreamID: st.d.StreamID, Data: st.got[st.emitted : st.emitted+sz], Last: last})
	st.emitted += sz
	if last {
		br.rd = nil
	}
}
