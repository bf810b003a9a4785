package niu

import (
	"bytes"
	"testing"

	"gonoc/internal/core"
	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// scriptMaster is a single-channel master adapter driven by a test: it
// offers one request at a time and copies each response.
type scriptMaster struct {
	eng     *MasterEngine
	next    core.Request // the request on the socket while pending
	req     core.Request // next, as issued
	pending bool
	done    int    // responses delivered
	failed  int    // responses with a failing status
	got     []byte // read data of the last response, copied
}

func (a *scriptMaster) DeliverResponse(rsp *core.Response, _ *core.Entry) {
	a.done++
	if !rsp.Status.OK() {
		a.failed++
	}
	a.got = append(a.got[:0], rsp.Data...)
}

func (a *scriptMaster) StreamSocket() {}

func (a *scriptMaster) PumpRequests(cycle int64) {
	if !a.pending {
		return
	}
	a.req = a.next
	switch a.eng.Issue(&a.req, 0, nil, cycle) {
	case IssueOK:
		a.pending = false
	case IssueDecodeErr, IssueUnsupported:
		a.pending = false
		a.failed++
	}
}

// offer puts req on the socket.
func (a *scriptMaster) offer(req core.Request) { a.next, a.pending = req, true }

// memSlave is a slave adapter over a flat byte array that answers at
// once — or, while parked, holds every response until unpark.
type memSlave struct {
	replier
	mem    []byte
	n      int // requests executed
	park   bool
	parked []func(*core.Response)
}

func (s *memSlave) Execute(req *core.Request, respond func(*core.Response)) {
	s.n++
	off := int(req.Addr - rtBase)
	if req.Cmd.IsWrite() {
		copy(s.mem[off:], req.Data)
		if !req.Cmd.ExpectsResponse() {
			return
		}
	}
	if s.park {
		s.parked = append(s.parked, respond)
		return
	}
	s.answer(req, respond)
}

func (s *memSlave) answer(req *core.Request, respond func(*core.Response)) {
	var data []byte
	if req.Cmd.IsRead() {
		off := int(req.Addr - rtBase)
		data = s.mem[off : off+req.Bytes()]
	}
	s.reply(respond, core.StOK, data)
}

const rtBase = 0x1000

// rtRig is a MasterEngine and a SlaveEngine with stub adapters on a
// two-node crossbar.
type rtRig struct {
	clk *sim.Clock
	m   *scriptMaster
	s   *memSlave
	wr  []byte // a 64-byte write payload
}

func newRTRig(maxOutstanding int) *rtRig {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "rt", sim.Nanosecond, 0)
	net := transport.NewCrossbar(clk, transport.NetConfig{BufDepth: 16}, []noctypes.NodeID{1, 2})
	amap := core.NewAddressMap()
	amap.MustAdd("mem", rtBase, 1<<12, 2)
	amap.Freeze()
	m := &scriptMaster{eng: NewMasterEngine(net, amap, MasterConfig{
		Node: 1, Table: core.TableConfig{MaxOutstanding: maxOutstanding},
	}, core.FullyOrdered)}
	m.eng.Bind(clk, m)
	s := &memSlave{mem: make([]byte, 1<<12)}
	NewSlaveEngine(net, SlaveConfig{Node: 2}).Bind(clk, s)
	r := &rtRig{clk: clk, m: m, s: s, wr: make([]byte, 64)}
	for i := range r.wr {
		r.wr[i] = byte(i*7 + 1)
	}
	return r
}

func read64() core.Request {
	return core.Request{Cmd: core.CmdRead, Addr: rtBase, Size: 8, Len: 8, Burst: core.BurstIncr}
}

func (r *rtRig) write64(posted bool) core.Request {
	req := core.Request{Cmd: core.CmdWrite, Addr: rtBase, Size: 8, Len: 8, Burst: core.BurstIncr, Data: r.wr}
	if posted {
		req.Cmd, req.Posted = core.CmdWritePost, true
	}
	return req
}

// roundTrip offers req and runs until it completes: its response is
// delivered, or — for a posted write — the slave has executed it.
func (r *rtRig) roundTrip(tb testing.TB, req core.Request) {
	done, n := r.m.done, r.s.n
	r.m.offer(req)
	for c := 0; c < 1000; c++ {
		r.clk.RunCycles(1)
		if r.m.done > done || (req.Posted && r.s.n > n) {
			return
		}
	}
	tb.Fatalf("%s round trip did not complete", req.Cmd)
}

// TestEngineRoundTripZeroAlloc pins the transaction layer's zero-alloc
// contract at the engines: once warm, a 64 B read, a 64 B write, a
// posted write, and a request retried against a full table allocate
// nothing — no request, closure, table entry, packet or payload.
func TestEngineRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	r := newRTRig(1)
	ops := []struct {
		name string
		req  core.Request
	}{
		{"write", r.write64(false)},
		{"read", read64()},
		{"posted-write", r.write64(true)},
	}
	for i := 0; i < 20; i++ { // warm up: size the pools and scratch buffers
		for _, op := range ops {
			r.roundTrip(t, op.req)
		}
	}
	if !bytes.Equal(r.m.got, r.wr) || r.m.failed != 0 {
		t.Fatalf("read back %x (failed %d), want %x", r.m.got, r.m.failed, r.wr)
	}
	for _, op := range ops {
		if n := testing.AllocsPerRun(100, func() { r.roundTrip(t, op.req) }); n != 0 {
			t.Errorf("%s round trip allocates %.1f objects, want 0", op.name, n)
		}
	}

	// A second read retries against the table the first one fills while
	// the slave holds its response.
	r.s.park = true
	r.m.offer(read64())
	r.clk.RunCycles(50) // issued; the response is parked at the slave
	if len(r.s.parked) != 1 {
		t.Fatalf("%d responses parked, want 1", len(r.s.parked))
	}
	r.m.offer(read64())
	stalls := r.m.eng.Stats().StallCycles
	if n := testing.AllocsPerRun(10, func() { r.clk.RunCycles(20) }); n != 0 {
		t.Errorf("stalled retry allocates %.1f objects per 20 cycles, want 0", n)
	}
	// AllocsPerRun calls f once more than asked, to warm up.
	if got := r.m.eng.Stats().StallCycles - stalls; got != 11*20 {
		t.Fatalf("stall cycles %d, want %d: the retry did not stall every cycle", got, 11*20)
	}
	r.s.park = false
	r.s.answer(&core.Request{Cmd: core.CmdRead, Addr: rtBase, Size: 8, Len: 8}, r.s.parked[0])
	done := r.m.done
	for c := 0; c < 1000 && r.m.done < done+2; c++ {
		r.clk.RunCycles(1)
	}
	if r.m.done != done+2 || r.m.failed != 0 {
		t.Fatalf("after unparking: %d of 2 responses, %d failed", r.m.done-done, r.m.failed)
	}
}

// BenchmarkEngineRoundTrip measures the transaction layer alone: one op
// is a 64 B read and a 64 B write, each a full MasterEngine → fabric →
// SlaveEngine → fabric → MasterEngine round trip with stub adapters on
// a two-node crossbar. CI guards allocs/op at zero (BENCH_transport.json).
func BenchmarkEngineRoundTrip(b *testing.B) {
	r := newRTRig(4)
	rd, wr := read64(), r.write64(false)
	for i := 0; i < 20; i++ {
		r.roundTrip(b, wr)
		r.roundTrip(b, rd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.roundTrip(b, rd)
		r.roundTrip(b, wr)
	}
}
