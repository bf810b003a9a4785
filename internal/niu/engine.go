// This file is the protocol-neutral engine pair — the shared
// three-quarters of every NIU; see doc.go for the package overview.

package niu

import (
	"bytes"
	"fmt"
	"slices"

	"gonoc/internal/core"
	"gonoc/internal/mem"
	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// IssueResult describes the outcome of MasterEngine.Issue.
type IssueResult uint8

// Issue outcomes.
const (
	IssueOK          IssueResult = iota
	IssueStall                   // resources busy this cycle; retry later
	IssueDecodeErr               // no target at this address: answer locally
	IssueUnsupported             // request uses a disabled service
)

// MasterAdapter is the protocol-specific quarter of a master NIU: the
// socket-facing converter the engine pumps once per cycle. Adapters keep
// a reference to their far side and issue converted requests through
// FarSide.Issue.
//
// The engine calls the three methods in a fixed per-cycle order —
// DeliverResponse, StreamSocket, PumpRequests — so an adapter sees at
// most one fabric response, then gets one chance to move a beat onto the
// socket, then one chance to convert socket requests into fabric issues.
//
// An adapter that also implements sim.Idler lets its engine sleep: Idle
// reports that the three methods would do nothing — no request on the
// socket, no response left to stream. Its socket request pipes are then
// passed to Bind, so that a request on the socket wakes the engine. An
// adapter without Idle works unchanged but keeps its engine awake on
// every cycle.
type MasterAdapter interface {
	// DeliverResponse consumes one fabric response. entry is the
	// transaction-table entry retired by this response: it records the
	// command, socket handle (ProtoID) and burst shape the request was
	// issued with, and entry.Meta holds whatever the adapter stored at
	// issue time. The engine owns rsp, entry and rsp.Data, which are
	// valid only during the call, and entry only until the adapter
	// next issues: an adapter that answers its socket later must copy
	// the read data.
	DeliverResponse(rsp *core.Response, entry *core.Entry)
	// StreamSocket pushes at most one queued response beat onto the
	// socket (no-op for adapters that answer the socket elsewhere).
	StreamSocket()
	// PumpRequests decodes pending socket requests and issues them via
	// the engine. Multi-channel sockets (AXI) may attempt several issues
	// in one call.
	PumpRequests(cycle int64)
}

// FarSide is what a master adapter issues into. There are two: a
// MasterEngine, which carries the request over the NoC, and a bus
// bridge (internal/bus), which carries it, one at a time and with the
// features the bus cannot express lost, over the Fig-2 bus. Config
// tells the adapter which services its far side offers and the priority
// to default to; an adapter never asks which far side it has.
type FarSide interface {
	Issue(req *core.Request, protoID int, meta any, cycle int64) IssueResult
	Config() MasterConfig
}

// MasterEngine is the protocol-independent three-quarters of every
// master NIU: it owns the transaction table, the tag/ordering policy,
// the legacy-lock token protocol, request/response wire codecs and the
// transport.Endpoint exchange, and it drives a MasterAdapter once per
// cycle. One engine type serves all socket protocols — the load-bearing
// consequence of the paper's VC-neutrality claim.
type MasterEngine struct {
	cfg     MasterConfig
	model   core.OrderingModel
	ep      *transport.Endpoint
	net     *transport.Network
	amap    *core.AddressMap
	table   *core.Table
	tags    *core.TagPolicy
	seq     uint64
	stats   MasterStats
	adapter MasterAdapter
	idler   sim.Idler // adapter's Idle, nil if it has none
	wake    sim.Waker

	// Engine-owned messages, reused by every transaction: the request
	// packet Issue encodes into (TrySend copies it) and the response
	// recvResponse decodes into.
	sendPkt transport.Packet
	rsp     core.Response
}

// NewMasterEngine creates the protocol-independent half of a master NIU.
// model is the socket's inherent ordering model. The engine is inert
// until Bind attaches its adapter and registers it on a clock.
func NewMasterEngine(net *transport.Network, amap *core.AddressMap, cfg MasterConfig, model core.OrderingModel) *MasterEngine {
	cfg = cfg.withDefaults()
	if model == core.FullyOrdered {
		cfg.NumTags = 1
	}
	ep := net.Endpoint(cfg.Node)
	if ep == nil {
		panic(fmt.Sprintf("niu: node %v not attached to the network", cfg.Node))
	}
	return &MasterEngine{
		cfg:   cfg,
		model: model,
		ep:    ep,
		net:   net,
		amap:  amap,
		table: core.NewTable(cfg.Table),
		tags:  core.NewTagPolicy(model, cfg.NumTags),
	}
}

// Bind attaches the protocol adapter and registers the engine on clk. A
// request pushed on any of requests, the socket's request pipes, wakes
// the engine.
func (e *MasterEngine) Bind(clk *sim.Clock, a MasterAdapter, requests ...interface{ SetConsumer(sim.Waker) }) {
	if e.adapter != nil {
		panic("niu: master engine already bound")
	}
	e.adapter = a
	e.idler, _ = a.(sim.Idler)
	e.wake = clk.Register(e)
	e.wake.Consumes(e.ep)
	e.wake.Consumes(requests...)
}

// Model returns the engine's ordering model.
func (e *MasterEngine) Model() core.OrderingModel { return e.model }

// Stats returns a copy of the NIU's counters.
func (e *MasterEngine) Stats() MasterStats {
	s := e.stats
	s.PeakTable = e.table.Peak()
	return s
}

// Table exposes the transaction table (for the area model and tests).
func (e *MasterEngine) Table() *core.Table { return e.table }

// Config returns the NIU configuration.
func (e *MasterEngine) Config() MasterConfig { return e.cfg }

// Eval implements sim.Clocked: one fabric response, one socket beat,
// then the request pump — the shared transaction-pump cadence every
// legacy NIU hand-rolled.
func (e *MasterEngine) Eval(cycle int64) {
	if pkt, entry := e.recvResponse(cycle); pkt != nil {
		e.adapter.DeliverResponse(&e.rsp, entry)
		// e.rsp.Data aliases the packet: recycle it only now.
		e.net.Recycle(pkt)
	}
	e.adapter.StreamSocket()
	e.adapter.PumpRequests(cycle)
}

// Idle implements sim.Idler: no response waiting in the endpoint and an
// idle adapter. An engine whose adapter has no Idle never sleeps.
func (e *MasterEngine) Idle() bool {
	return e.idler != nil && e.ep.Received() == 0 && e.idler.Idle()
}

// Issue attempts to convert and inject one transaction-layer request.
// protoID is the socket's ordering handle (0 for fully-ordered sockets,
// thread ID for OCP, direction-qualified transaction ID for AXI/AVCI).
// meta is adapter-private context stored in the table entry and returned
// on completion. The engine encodes req before returning, so the caller
// may reuse req and its Data at once.
func (e *MasterEngine) Issue(req *core.Request, protoID int, meta any, cycle int64) IssueResult {
	// Exclusive-access demotion is a per-protocol decision (AXI demotes
	// to a plain access per its spec; OCP answers FAIL locally), handled
	// by the adapters before this point. Legacy locks, by contrast, are
	// gated here: without the service there is no lock token.
	if req.Locked && !e.cfg.Services.LegacyLock {
		return IssueUnsupported
	}
	dst, _, ok := e.amap.Decode(req.Addr)
	if !ok {
		e.stats.DecodeErrors++
		return IssueDecodeErr
	}
	if !e.ep.CanSend() {
		e.stats.StallCycles++
		return IssueStall
	}
	// Legacy lock sequences serialize on the fabric-wide token before any
	// packet is injected (§3: LOCK impacts the transport layer).
	if req.Locked {
		if !e.net.TryAcquireLock(e.cfg.Node) {
			e.stats.StallCycles++
			return IssueStall
		}
	}
	tag, ok := e.tags.Map(protoID)
	if !ok {
		e.stats.StallCycles++
		return IssueStall
	}
	expectsRsp := req.Cmd.ExpectsResponse()
	if expectsRsp && !e.table.CanIssue(tag, dst) {
		e.tags.Release(tag)
		e.stats.StallCycles++
		return IssueStall
	}

	e.seq++
	req.Src = e.cfg.Node
	req.Dst = dst
	req.Tag = tag
	req.Seq = e.seq
	if req.Priority == 0 {
		req.Priority = e.cfg.Priority
	}
	pkt := &e.sendPkt
	pkt.Header = transport.Header{
		Kind:     transport.KindReq,
		Dst:      dst,
		Src:      e.cfg.Node,
		Tag:      tag,
		Priority: req.Priority,
		Locked:   req.Locked,
		Unlock:   req.Unlock,
		User:     e.cfg.Services.UserBitsFor(req),
	}
	pkt.Payload = core.AppendRequest(pkt.Payload[:0], req)
	if !e.ep.TrySend(pkt) {
		if expectsRsp {
			e.tags.Release(tag)
		}
		e.stats.StallCycles++
		return IssueStall
	}
	if expectsRsp {
		e.table.Issue(&core.Entry{
			Tag: tag, Dst: dst, Cmd: req.Cmd,
			ProtoID: protoID, Size: req.Size, Len: req.Len,
			Seq: e.seq, Issue: cycle, Meta: meta,
		})
	} else {
		e.tags.Release(tag)
		e.stats.Posted++
	}
	e.stats.Issued++
	if p := e.net.Probe(); p != nil {
		p.Event(obs.Event{
			Kind: obs.KindTxnIssue, Cycle: cycle,
			Src: e.cfg.Node, Dst: dst, Tag: tag,
		})
	}
	return IssueOK
}

// recvResponse pops one response packet, decodes it into e.rsp and
// retires its table entry. It returns the packet, which e.rsp.Data
// aliases, for the caller to recycle; nil when no response is available
// this cycle.
func (e *MasterEngine) recvResponse(cycle int64) (*transport.Packet, *core.Entry) {
	pkt, ok := e.ep.Recv()
	if !ok {
		return nil, nil
	}
	if pkt.Kind != transport.KindRsp {
		panic(fmt.Sprintf("niu: master NIU %v received a request packet", e.cfg.Node))
	}
	rsp := &e.rsp
	if err := core.DecodeResponseInto(rsp, pkt.Payload); err != nil {
		panic(fmt.Sprintf("niu: %v: corrupt response payload: %v", e.cfg.Node, err))
	}
	entry, cerr := e.table.Complete(pkt.Tag)
	if cerr != nil {
		panic(fmt.Sprintf("niu: %v: %v", e.cfg.Node, cerr))
	}
	e.tags.Release(pkt.Tag)
	// A lock sequence ends when its unlocking transaction answers.
	if entry.Cmd == core.CmdWriteUnlk {
		e.net.ReleaseLock(e.cfg.Node)
	}
	rsp.Src = pkt.Src
	rsp.Dst = pkt.Dst
	rsp.Tag = pkt.Tag
	rsp.Seq = entry.Seq
	e.stats.Completed++
	if p := e.net.Probe(); p != nil {
		p.Event(obs.Event{
			Kind: obs.KindTxnComplete, Cycle: cycle,
			Src: e.cfg.Node, Dst: pkt.Src, Tag: pkt.Tag,
		})
	}
	return pkt, entry
}

// SlaveAdapter is the protocol-specific quarter of a slave NIU: it
// executes one checked transaction-layer request against the target IP
// by driving that IP's socket. respond must be invoked exactly once for
// response-expecting commands, and never for posted writes.
//
// The engine owns req. It decodes every request into one of
// MaxConcurrent slots, and req.Data and req.BE alias the request packet
// that slot holds. For a response-expecting command the slot is released
// by respond, so the target IP must have consumed the write data by then
// (every built-in target answers a write only after committing it). A
// posted write has no respond call: its slot is released as soon as
// Execute returns, so an adapter whose IP uses posted data later must
// copy it first. respond encodes rsp before returning; the adapter may
// reuse rsp and rsp.Data at once.
type SlaveAdapter interface {
	Execute(req *core.Request, respond func(*core.Response))
}

// SlaveEngine is the protocol-independent half of every slave NIU: it
// owns request decode, the concurrency bound, the response queue, the
// service gating and the exclusive-access monitor (§3: the entire
// slave-side hardware the exclusive NoC service costs), and hands each
// admitted request to a SlaveAdapter.
type SlaveEngine struct {
	cfg      SlaveConfig
	ep       *transport.Endpoint
	net      *transport.Network
	monitor  *mem.Monitor[noctypes.NodeID] // nil when the service is off
	inFlight int
	stats    SlaveStats
	adapter  SlaveAdapter
	wake     sim.Waker

	free []*slaveSlot // request slots not holding a request (a stack)
	// rspQ is a ring of encoded responses awaiting fabric credit. Its
	// responseQueue+MaxConcurrent entries cannot overflow: admission
	// stops at responseQueue queued responses, and each of at most
	// MaxConcurrent requests in flight adds one more.
	rspQ    []*transport.Packet
	rspHead int
	rspN    int
	early   core.Response // execCheck's local answer
}

// slaveSlot holds one admitted request from decode until release.
type slaveSlot struct {
	req core.Request
	pkt *transport.Packet // the request packet req.Data and req.BE alias
	// respond answers req and releases the slot; built once per slot.
	respond func(*core.Response)
	busy    bool
}

// NewSlaveEngine creates the protocol-independent half of a slave NIU.
// The engine is inert until Bind attaches its adapter.
func NewSlaveEngine(net *transport.Network, cfg SlaveConfig) *SlaveEngine {
	cfg = cfg.withDefaults()
	ep := net.Endpoint(cfg.Node)
	if ep == nil {
		panic(fmt.Sprintf("niu: node %v not attached to the network", cfg.Node))
	}
	e := &SlaveEngine{
		cfg: cfg, ep: ep, net: net,
		rspQ: make([]*transport.Packet, responseQueue+cfg.MaxConcurrent),
	}
	if cfg.Services.Exclusive {
		e.monitor = new(mem.Monitor[noctypes.NodeID])
	}
	slots := make([]slaveSlot, cfg.MaxConcurrent)
	for i := range slots {
		s := &slots[i]
		s.respond = func(rsp *core.Response) { e.respond(s, rsp) }
		e.free = append(e.free, s)
	}
	return e
}

// Bind attaches the protocol adapter and registers the engine on clk.
func (e *SlaveEngine) Bind(clk *sim.Clock, a SlaveAdapter) {
	if e.adapter != nil {
		panic("niu: slave engine already bound")
	}
	e.adapter = a
	e.wake = clk.Register(e)
	e.wake.Consumes(e.ep)
}

// Stats returns a copy of the NIU's counters.
func (e *SlaveEngine) Stats() SlaveStats { return e.stats }

// Eval implements sim.Clocked: drain one queued response, admit one
// request, gate it through the services, and hand it to the adapter.
func (e *SlaveEngine) Eval(cycle int64) {
	e.drainResponses()
	s := e.recvRequest()
	if s == nil {
		return
	}
	req := &s.req
	if early := e.execCheck(req); early != nil {
		s.respond(early)
		return
	}
	posted := !req.Cmd.ExpectsResponse()
	e.adapter.Execute(req, s.respond)
	if posted {
		e.release(s)
	}
}

// Idle implements sim.Idler: no response queued and no request waiting
// in the endpoint. A request in the target IP wakes the engine through
// respond.
func (e *SlaveEngine) Idle() bool { return e.rspN == 0 && e.ep.Received() == 0 }

// recvRequest pops one request packet and decodes it into a free slot,
// respecting the concurrency bound. Requests in flight hold one slot
// each, so a free slot exists whenever the bound admits one more.
func (e *SlaveEngine) recvRequest() *slaveSlot {
	if e.inFlight >= e.cfg.MaxConcurrent || e.rspN >= responseQueue {
		return nil
	}
	pkt, ok := e.ep.Recv()
	if !ok {
		return nil
	}
	if pkt.Kind != transport.KindReq {
		panic(fmt.Sprintf("niu: slave NIU %v received a response packet", e.cfg.Node))
	}
	s := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	s.pkt, s.busy = pkt, true
	req := &s.req
	if err := core.DecodeRequestInto(req, pkt.Payload); err != nil {
		panic(fmt.Sprintf("niu: %v: corrupt request payload: %v", e.cfg.Node, err))
	}
	req.Src = pkt.Src
	req.Dst = pkt.Dst
	req.Tag = pkt.Tag
	e.stats.Requests++
	if req.Cmd.ExpectsResponse() {
		e.inFlight++
	}
	if p := e.net.Probe(); p != nil {
		p.Event(obs.Event{
			Kind: obs.KindSlaveRecv, Cycle: e.net.Clock().Cycle(),
			Src: e.cfg.Node, Dst: pkt.Src, Tag: pkt.Tag,
		})
	}
	return s
}

// respond encodes rsp to s's request into a pooled packet, queues it for
// injection and releases the slot.
func (e *SlaveEngine) respond(s *slaveSlot, rsp *core.Response) {
	req := &s.req
	if !s.busy || !req.Cmd.ExpectsResponse() {
		panic(fmt.Sprintf("niu: slave NIU %v: respond after release or for a posted write", e.cfg.Node))
	}
	rsp.Src = e.cfg.Node
	rsp.Dst = req.Src
	rsp.Tag = req.Tag
	pkt := e.net.NewPacket(0)
	pkt.Header = transport.Header{
		Kind:     transport.KindRsp,
		Dst:      req.Src, // responses route back via MstAddr
		Src:      e.cfg.Node,
		Tag:      req.Tag,
		Priority: req.Priority,
	}
	pkt.Payload = core.AppendResponse(pkt.Payload, rsp)
	e.rspQ[(e.rspHead+e.rspN)%len(e.rspQ)] = pkt
	e.rspN++
	e.inFlight--
	e.stats.Responses++
	e.wake.Wake()
	if p := e.net.Probe(); p != nil {
		p.Event(obs.Event{
			Kind: obs.KindSlaveResp, Cycle: e.net.Clock().Cycle(),
			Src: e.cfg.Node, Dst: req.Src, Tag: req.Tag,
		})
	}
	// Only now: rsp.Data may alias the request packet.
	e.release(s)
}

// release recycles s's request packet and returns s to the free list.
func (e *SlaveEngine) release(s *slaveSlot) {
	e.net.Recycle(s.pkt)
	*s = slaveSlot{respond: s.respond}
	e.free = append(e.free, s)
}

// drainResponses injects queued responses, one TrySend per cycle, and
// recycles each packet once the fabric has copied it.
func (e *SlaveEngine) drainResponses() {
	if e.rspN == 0 {
		return
	}
	pkt := e.rspQ[e.rspHead]
	if e.ep.TrySend(pkt) {
		e.net.Recycle(pkt)
		e.rspQ[e.rspHead] = nil
		e.rspHead = (e.rspHead + 1) % len(e.rspQ)
		e.rspN--
	}
}

// execCheck applies service gating and the exclusive monitor before a
// request touches the target IP. It returns a ready-made error/fail
// response when the request must not proceed, or nil to continue.
//
// This function is the §3 recipe in code: the exclusive service is one
// user bit (already carried by the packet) plus this NIU-local state.
func (e *SlaveEngine) execCheck(req *core.Request) *core.Response {
	switch req.Cmd {
	case core.CmdReadEx:
		if e.monitor == nil {
			e.stats.Unsupported++
			return e.answer(core.StErrUnsupported)
		}
		lo, hi := burstOf(req).Span(req.Addr, req.Size, int(req.Len))
		e.monitor.Reserve(req.Src, lo, hi)
		return nil
	case core.CmdWriteEx:
		if e.monitor == nil {
			e.stats.Unsupported++
			return e.answer(core.StErrUnsupported)
		}
		lo, hi := burstOf(req).Span(req.Addr, req.Size, int(req.Len))
		if !e.monitor.Holds(req.Src, lo, hi) {
			e.stats.ExclusiveNak++
			return e.answer(core.StExFail)
		}
		e.stats.ExclusiveOK++
		e.monitor.Wrote(lo, hi)
		return nil
	default:
		if req.Cmd.IsWrite() && e.monitor != nil {
			e.monitor.Wrote(burstOf(req).Span(req.Addr, req.Size, int(req.Len)))
		}
		return nil
	}
}

// answer returns the engine's local response, set to a data-less st.
func (e *SlaveEngine) answer(st core.Status) *core.Response {
	e.early = core.Response{Status: st}
	return &e.early
}

// readBufs recycles the read data a master adapter streams onto its
// socket: rsp.Data dies with DeliverResponse, but the socket takes the
// beats in later cycles. hold copies a response into a free buffer. When
// the last beat reading a buffer is pushed, pushed parks it: the
// socket's master may pop that beat only after the pipe's depth of later
// pushes, so the buffer is free again once depth+1 more buffers have
// been pushed after it.
type readBufs struct {
	free   [][]byte
	parked [][]byte // the last depth+1 buffers pushed, a ring
	next   int
}

func newReadBufs(depth int) readBufs { return readBufs{parked: make([][]byte, depth+1)} }

// hold returns a copy of data zero-padded to at least n bytes (error
// responses carry no data; the sockets still expect full-length beats),
// or nil when both are empty.
func (b *readBufs) hold(data []byte, n int) []byte {
	n = max(n, len(data))
	if n == 0 {
		return nil
	}
	var buf []byte
	if k := len(b.free); k > 0 {
		buf, b.free = b.free[k-1], b.free[:k-1]
	}
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf[copy(buf, data):])
	return buf
}

// pushed parks buf, whose last beat the socket's response pipe has just
// taken, and frees the buffer parked depth+1 pushes ago.
func (b *readBufs) pushed(buf []byte) {
	if old := b.parked[b.next]; old != nil {
		b.free = append(b.free, old)
	}
	b.parked[b.next] = buf
	b.next = (b.next + 1) % len(b.parked)
}

// heldWrite returns the write data and byte enables a slave adapter may
// hand its IP for later use: copies for a posted write, whose slot is
// released when Execute returns, and the slot's own bytes otherwise
// (respond, which releases them, comes after the IP has committed them).
func heldWrite(req *core.Request) (data, be []byte) {
	if req.Cmd.ExpectsResponse() {
		return req.Data, req.BE
	}
	return bytes.Clone(req.Data), bytes.Clone(req.BE)
}

// replier is embedded in every slave adapter: one response message
// reused for every answer, which respond encodes before returning.
type replier struct{ rsp core.Response }

// reply answers through respond with status st and read data.
func (p *replier) reply(respond func(*core.Response), st core.Status, data []byte) {
	p.rsp = core.Response{Status: st, Data: data}
	respond(&p.rsp)
}

// execs is a slave adapter's pool of exec contexts, beside its replier.
// W and R are the completion types its target's master takes for a
// write and a read: bind makes a new context's pair from the context's
// part, once.
type execs[W, R any] struct {
	replier
	free []*slaveExec[W, R]
	bind func(part func(data []byte, ipErr bool)) (wrote W, read R)
}

// slaveExec is one request a slave adapter's target IP is executing. A
// request runs as one or more parts (transfers on the target socket);
// it answers when the last part completes, after the context has gone
// back to its pool.
type slaveExec[W, R any] struct {
	pool    *execs[W, R]
	wrote   W
	read    R
	cmd     core.Cmd
	respond func(*core.Response)
	parts   int
	ipErr   bool
	got     []byte // the read data of the parts so far
}

// exec draws a context for req, which runs as parts parts; a posted
// write gets none (nil).
func (p *execs[W, R]) exec(req *core.Request, respond func(*core.Response), parts int) *slaveExec[W, R] {
	if !req.Cmd.ExpectsResponse() {
		return nil
	}
	var x *slaveExec[W, R]
	if n := len(p.free); n > 0 {
		x, p.free = p.free[n-1], p.free[:n-1]
	} else {
		x = &slaveExec[W, R]{pool: p}
		x.wrote, x.read = p.bind(x.part)
	}
	x.cmd, x.respond, x.parts, x.ipErr, x.got = req.Cmd, respond, parts, false, x.got[:0]
	return x
}

// completions returns the completions to hand the target's master: x's,
// or none for a posted write.
func (x *slaveExec[W, R]) completions() (wrote W, read R) {
	if x == nil {
		return wrote, read
	}
	return x.wrote, x.read
}

// part completes one part with its read data (nil for a write). The
// last part answers, with every part's data joined.
func (x *slaveExec[W, R]) part(data []byte, ipErr bool) {
	x.ipErr = x.ipErr || ipErr
	if x.parts > 1 || len(x.got) > 0 {
		x.got = append(x.got, data...)
		data = x.got
	}
	if x.parts--; x.parts > 0 {
		return
	}
	respond, st := x.respond, statusFor(x.cmd, x.ipErr)
	x.respond = nil
	x.pool.free = append(x.pool.free, x)
	x.pool.reply(respond, st, data)
}

// flagCompletions binds the completions of a master that completes a
// read with its data and an error flag, and a write with the flag
// alone: PVCI, BVCI, AVCI and WISHBONE.
func flagCompletions(part func([]byte, bool)) (func(bool), func([]byte, bool)) {
	return func(err bool) { part(nil, err) }, part
}

// transfers splits req into the transfers a target socket runs: one of
// every beat when the socket can express req's burst (native), else one
// single-beat transfer per beat. It returns the transfer count and the
// beats per transfer.
func transfers(req *core.Request, native bool) (parts, beats int) {
	if native {
		return 1, int(req.Len)
	}
	return int(req.Len), 1
}

// burstOf maps req's burst kind onto mem's address rule: a WRAP burst
// wraps at its own Len beats.
func burstOf(req *core.Request) mem.Burst {
	switch req.Burst {
	case core.BurstFixed:
		return mem.Burst{Fixed: true}
	case core.BurstWrap:
		return mem.Burst{Wrap: int(req.Len)}
	}
	return mem.Burst{}
}

// partAddr is the start address of transfer i of req, each transfer
// beats beats long, so a split burst lands where the whole one would.
func partAddr(req *core.Request, i, beats int) uint64 {
	return burstOf(req).Addr(req.Addr, req.Size, i*beats)
}

// partOf is transfer i of a request's bytes b, n bytes per transfer, or
// nil when b is nil (a write without byte enables).
func partOf(b []byte, i, n int) []byte {
	if b == nil {
		return nil
	}
	return b[i*n : (i+1)*n]
}
