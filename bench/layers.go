package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/scenario"
	"gonoc/internal/server"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

// The layer drivers: one micro-benchmark per layer of the stack, each
// driving its layer only through exported APIs and timed with
// testing.Benchmark. Set-up happens before b.ResetTimer, so ns/op and
// allocs/op are steady-state costs. The traced run combines them with
// the workload's own counts into the attribution table.

// sockets is the order the protocol drivers run in; the names are the
// keys of soc.System.Issuers.
var sockets = []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop", "wb"}

// socketAddr is a mapped address each socket's isolated transaction
// targets.
var socketAddr = map[string]uint64{
	"axi": soc.BaseAXIMem, "ocp": soc.BaseOCPMem, "ahb": soc.BaseAHBMem,
	"pvci": soc.BaseAXIMem + 0x20000, "bvci": soc.BaseBVCIMem, "avci": soc.BaseOCPMem + 0x20000,
	"prop": soc.BaseAHBMem + 0x20000, "wb": soc.BaseWBMem,
}

// maxTxnCycles bounds one isolated transaction; a driver that needs
// longer has hung.
const maxTxnCycles = 100_000

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func allocsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.MemAllocs) / float64(r.N)
}

// layerRun holds the drivers' metrics as they are produced.
type layerRun struct {
	tr  *tracer
	sc  scale
	m   map[string]float64
	err error
}

// bench runs one driver inside a span, filed under "driver:<layer>" so
// the self-time table keeps drivers apart from the workload's own calls.
// A driver reports a failure through *derr, since testing.Benchmark
// discards b.Fatal messages.
func (lr *layerRun) bench(name, layer string, fn func(b *testing.B, derr *error)) testing.BenchmarkResult {
	var derr error
	sp := lr.tr.start(name, "driver:"+layer, 0)
	r := testing.Benchmark(func(b *testing.B) { fn(b, &derr) })
	lr.tr.end(sp)
	if derr == nil && r.N == 0 {
		derr = fmt.Errorf("did not run")
	}
	if derr != nil && lr.err == nil {
		lr.err = fmt.Errorf("layer driver %s: %w", name, derr)
	}
	if r.N == 0 {
		r.N = 1
	}
	return r
}

// runLayerDrivers runs every driver once and returns the per-layer
// metrics they define.
func runLayerDrivers(tr *tracer, sc scale) (map[string]float64, error) {
	lr := &layerRun{tr: tr, sc: sc, m: map[string]float64{}}
	lr.simDrivers()
	lr.socDrivers()
	lr.protocolDrivers()
	lr.niuDriver()
	lr.coreDrivers()
	lr.transportDrivers()
	lr.scenarioDrivers()
	lr.serverDrivers()
	return lr.m, lr.err
}

// simDrivers: clock-edge dispatch over 64 no-op components.
func (lr *layerRun) simDrivers() {
	const comps = 64
	r := lr.bench("sim.edge", "sim", func(b *testing.B, _ *error) {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "bench", sim.Nanosecond, 0)
		for i := 0; i < comps; i++ {
			clk.Register(sim.ClockedFunc{OnEval: func(int64) {}})
		}
		clk.RunCycles(16)
		b.ResetTimer()
		clk.RunCycles(int64(b.N))
	})
	lr.m["sim.edge_ns"] = nsPerOp(r) / comps
}

// socDrivers: the cost of one idle cycle of the quiet eight-socket SoC
// (every NIU, protocol engine and memory evaluated with nothing to do),
// and of building the Fig 1 system.
func (lr *layerRun) socDrivers() {
	idle := func(topo soc.Topology) func(b *testing.B, _ *error) {
		return func(b *testing.B, _ *error) {
			s := soc.BuildNoC(soc.Config{Seed: 1, Quiet: true, Wishbone: true, Topology: topo})
			s.Clk.RunCycles(100)
			b.ResetTimer()
			s.Clk.RunCycles(int64(b.N))
		}
	}
	r := lr.bench("soc.idle.crossbar", "soc", idle(soc.Crossbar))
	lr.m["soc.idle_cycle_ns.crossbar"] = nsPerOp(r)
	lr.m["soc.idle_cycle_allocs"] = allocsPerOp(r)
	r = lr.bench("soc.idle.mesh", "soc", idle(soc.Mesh))
	lr.m["soc.idle_cycle_ns.mesh"] = nsPerOp(r)
	r = lr.bench("soc.build", "soc", func(b *testing.B, _ *error) {
		for i := 0; i < b.N; i++ {
			soc.BuildNoC(soc.Config{Seed: 1, Wishbone: true, RequestsPerMaster: lr.sc.fig1Requests})
		}
	})
	lr.m["soc.build_ms"] = nsPerOp(r) / 1e6
}

// protocolDrivers: one isolated 16-byte transaction per socket (writes
// and reads alternate) through System.Issuers on a quiet crossbar build.
// After each transaction the same system runs as many idle cycles, timed
// apart; the marginal cost is the transaction's time minus that idle
// time, which leaves what the protocol engine, its NIU and the fabric
// spend on the transaction itself.
func (lr *layerRun) protocolDrivers() {
	idleAllocs := lr.m["soc.idle_cycle_allocs"]
	for _, name := range sockets {
		r := lr.bench("protocols."+name, "protocols", func(b *testing.B, derr *error) {
			s := soc.BuildNoC(soc.Config{Seed: 1, Quiet: true, Wishbone: true})
			issue := s.Issuers()[name]
			s.Clk.RunCycles(100)
			var cycles int64
			var idle time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, ok := false, false
				c0 := s.Clk.Cycle()
				issue(i%2 == 0, socketAddr[name]+uint64(i%256)*64, 16, func(good bool) { done, ok = true, good })
				for !done && s.Clk.Cycle()-c0 < maxTxnCycles {
					s.Clk.RunCycles(1)
				}
				if !ok {
					*derr = fmt.Errorf("transaction %d failed or hung", i)
					return
				}
				n := s.Clk.Cycle() - c0
				cycles += n
				b.StopTimer()
				t0 := time.Now()
				for c := int64(0); c < n; c++ {
					s.Clk.RunCycles(1)
				}
				idle += time.Since(t0)
				b.StartTimer()
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
			b.ReportMetric(float64(idle.Nanoseconds())/float64(b.N), "idle-ns/op")
		})
		lr.m["protocols."+name+".marginal_ns"] = nsPerOp(r) - r.Extra["idle-ns/op"]
		lr.m["protocols."+name+".marginal_allocs"] = allocsPerOp(r) - r.Extra["cycles/op"]*idleAllocs
	}
}

// stubMaster is a bench-owned master adapter: it issues one 64-byte read
// when asked and records the response.
type stubMaster struct {
	eng        *niu.MasterEngine
	req        core.Request
	want       bool
	done, good bool
}

func (a *stubMaster) DeliverResponse(rsp *core.Response, _ *core.Entry) {
	a.done, a.good = true, rsp.Status.OK() && len(rsp.Data) == 64
}

func (a *stubMaster) StreamSocket() {}

func (a *stubMaster) PumpRequests(cycle int64) {
	if !a.want {
		return
	}
	a.req = core.Request{Cmd: core.CmdRead, Addr: 0x1000, Size: 8, Len: 8, Burst: core.BurstIncr}
	if a.eng.Issue(&a.req, 0, nil, cycle) == niu.IssueOK {
		a.want = false
	}
}

// stubSlave answers every request at once from a fixed buffer, so the
// driver measures the engines, not a memory model.
type stubSlave struct {
	rsp  core.Response
	data []byte
}

func (s *stubSlave) Execute(_ *core.Request, respond func(*core.Response)) {
	s.rsp = core.Response{Status: core.StOK, Data: s.data}
	respond(&s.rsp)
}

// niuDriver: a MasterEngine/SlaveEngine round trip on a two-node
// crossbar, one 64-byte read per op.
func (lr *layerRun) niuDriver() {
	r := lr.bench("niu.engine_rt", "niu", func(b *testing.B, derr *error) {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "niu", sim.Nanosecond, 0)
		net := transport.NewCrossbar(clk, transport.NetConfig{BufDepth: 16}, []noctypes.NodeID{1, 2})
		amap := core.NewAddressMap()
		amap.MustAdd("mem", 0x1000, 1<<16, 2)
		amap.Freeze()
		m := &stubMaster{eng: niu.NewMasterEngine(net, amap, niu.MasterConfig{Node: 1}, core.FullyOrdered)}
		m.eng.Bind(clk, m)
		niu.NewSlaveEngine(net, niu.SlaveConfig{Node: 2}).Bind(clk, &stubSlave{data: make([]byte, 64)})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.want, m.done = true, false
			for c := 0; !m.done && c < maxTxnCycles; c++ {
				clk.RunCycles(1)
			}
			if !m.good {
				*derr = fmt.Errorf("round trip %d failed or hung", i)
				return
			}
		}
	})
	lr.m["niu.engine_rt_ns"] = nsPerOp(r)
	lr.m["niu.engine_rt_allocs"] = allocsPerOp(r)
}

var codecSink any

// coreDrivers: the transaction-layer wire codec.
func (lr *layerRun) coreDrivers() {
	r := lr.bench("core.req_codec", "core", func(b *testing.B, derr *error) {
		req := core.Request{Cmd: core.CmdWrite, Addr: 0x1000, Size: 8, Len: 8, Burst: core.BurstIncr, Data: make([]byte, 64)}
		for i := 0; i < b.N; i++ {
			got, err := core.DecodeRequest(core.EncodeRequest(&req))
			if err != nil {
				*derr = err
				return
			}
			codecSink = got
		}
	})
	lr.m["core.req_codec_ns"] = nsPerOp(r)
	allocs := allocsPerOp(r)
	r = lr.bench("core.rsp_codec", "core", func(b *testing.B, derr *error) {
		rsp := core.Response{Status: core.StOK, Data: make([]byte, 64)}
		for i := 0; i < b.N; i++ {
			got, err := core.DecodeResponse(core.EncodeResponse(&rsp))
			if err != nil {
				*derr = err
				return
			}
			codecSink = got
		}
	})
	lr.m["core.rsp_codec_ns"] = nsPerOp(r)
	lr.m["core.codec_allocs"] = allocs + allocsPerOp(r)
}

// meshFabric is an 8×8 mesh with one bench-owned injector per endpoint.
type meshFabric struct {
	clk   *sim.Clock
	net   *transport.Network
	nodes []noctypes.NodeID
	eps   []*transport.Endpoint
	pkts  []*transport.Packet
	rx    []*transport.Packet
	rng   uint64
}

func newMeshFabric(cfg transport.NetConfig) *meshFabric {
	const W, H = 8, 8
	k := sim.NewKernel()
	f := &meshFabric{clk: sim.NewClock(k, "mesh", sim.Nanosecond, 0), rng: 0x9E3779B97F4A7C15}
	spec := transport.MeshSpec{W: W, H: H, Nodes: map[noctypes.NodeID]transport.Coord{}}
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			id := noctypes.NodeID(y*W + x)
			spec.Nodes[id] = transport.Coord{X: x, Y: y}
			f.nodes = append(f.nodes, id)
		}
	}
	f.net = transport.NewMesh(f.clk, cfg, spec)
	for _, id := range f.nodes {
		f.eps = append(f.eps, f.net.Endpoint(id))
		f.pkts = append(f.pkts, &transport.Packet{Header: transport.Header{Kind: transport.KindReq, Src: id}, Payload: make([]byte, 16)})
	}
	return f
}

func (f *meshFabric) next() uint64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return f.rng
}

// tick offers a packet to a random destination from each endpoint with
// probability 1/every (every 1: whenever the endpoint can send; every 0:
// never), runs one cycle, and recycles what arrived. It returns the
// packets delivered. Idle and loaded fabrics run the same loop, so the
// difference between them is what the packets cost.
func (f *meshFabric) tick(every uint64) int {
	for i, ep := range f.eps {
		if every == 0 || f.next()%every != 0 || !ep.CanSend() {
			continue
		}
		d := f.nodes[f.next()%uint64(len(f.nodes))]
		if d == ep.ID() {
			continue
		}
		f.pkts[i].Dst = d
		ep.TrySend(f.pkts[i])
	}
	f.clk.RunCycles(1)
	got := 0
	for _, ep := range f.eps {
		f.rx = ep.RecvAll(f.rx[:0])
		got += len(f.rx)
		for _, p := range f.rx {
			f.net.Recycle(p)
		}
	}
	return got
}

func (f *meshFabric) flits() uint64 {
	var n uint64
	for _, r := range f.net.Routers() {
		n += r.Stats().FlitsMoved
	}
	return n
}

// transportDrivers: one packet through a two-node crossbar, and the
// per-cycle, per-flit and per-packet costs of an 8×8 mesh on the
// cycle-accurate and the hybrid fabric.
func (lr *layerRun) transportDrivers() {
	r := lr.bench("transport.pkt", "transport", func(b *testing.B, _ *error) {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "xbar", sim.Nanosecond, 0)
		net := transport.NewCrossbar(clk, transport.NetConfig{BufDepth: 16}, []noctypes.NodeID{1, 2})
		src, dst := net.Endpoint(1), net.Endpoint(2)
		p := &transport.Packet{Header: transport.Header{Kind: transport.KindReq, Dst: 2, Src: 1}, Payload: make([]byte, 64)}
		var rx []*transport.Packet
		b.ResetTimer()
		for sent, got := 0, 0; got < b.N; {
			if sent < b.N && src.CanSend() && src.TrySend(p) {
				sent++
			}
			clk.RunCycles(1)
			rx = dst.RecvAll(rx[:0])
			got += len(rx)
			for _, q := range rx {
				net.Recycle(q)
			}
		}
	})
	lr.m["transport.pkt_ns"] = nsPerOp(r)
	lr.m["transport.pkt_allocs"] = allocsPerOp(r)

	// meshLoad drives the 8×8 mesh with one injector per endpoint offering
	// a packet every `every` cycles (1: whenever it can; 0: never). Idle
	// runs use the same loop after some traffic, so lazily built fabric
	// state exists and loaded minus idle is what the packets cost.
	meshLoad := func(cfg transport.NetConfig, every uint64) func(b *testing.B, derr *error) {
		return func(b *testing.B, derr *error) {
			f := newMeshFabric(cfg)
			for c := 0; c < 300; c++ {
				f.tick(100)
			}
			for c := 0; c < 100; c++ {
				f.tick(every)
			}
			flits0, pkts := f.flits(), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkts += f.tick(every)
			}
			b.StopTimer()
			if every != 0 && pkts == 0 && b.N >= 1000 {
				*derr = fmt.Errorf("loaded mesh delivered nothing in %d cycles", b.N)
			}
			b.ReportMetric(float64(f.flits()-flits0)/float64(b.N), "flits/cycle")
			b.ReportMetric(float64(pkts)/float64(b.N), "pkts/cycle")
		}
	}
	cycle, hybrid := transport.NetConfig{}, transport.NetConfig{Fidelity: transport.FidelityHybrid}
	busy := lr.bench("transport.mesh_busy", "transport", meshLoad(cycle, 1))
	idle := lr.bench("transport.mesh_idle", "transport", meshLoad(cycle, 0))
	lr.m["transport.mesh_busy_cycle_ns"] = nsPerOp(busy)
	lr.m["transport.mesh_idle_cycle_ns"] = nsPerOp(idle)
	lr.m["transport.flit_ns"] = (nsPerOp(busy) - nsPerOp(idle)) / busy.Extra["flits/cycle"]
	// One packet per endpoint per 100 cycles is the hybrid workload's
	// load, at which every route stays cold.
	load := lr.bench("transport.hybrid_load", "transport", meshLoad(hybrid, 100))
	idle = lr.bench("transport.hybrid_idle", "transport", meshLoad(hybrid, 0))
	lr.m["transport.hybrid_idle_cycle_ns"] = nsPerOp(idle)
	lr.m["transport.hybrid_pkt_ns"] = (nsPerOp(load) - nsPerOp(idle)) / load.Extra["pkts/cycle"]
}

// missDoc is the scenario document of one server-mix miss: the built-in
// cpu-dma-display with the scale's measure window and the given seed.
func missDoc(sc scale, seed int64) ([]byte, error) {
	s, ok := scenario.Get("cpu-dma-display")
	if !ok {
		return nil, fmt.Errorf("built-in scenario cpu-dma-display is missing")
	}
	s.Seed, s.Measure.Measure = seed, sc.serverMeasure
	var buf bytes.Buffer
	err := s.Save(&buf)
	return buf.Bytes(), err
}

// scenarioDrivers: decode, content-address and lower one miss document.
func (lr *layerRun) scenarioDrivers() {
	doc, err := missDoc(lr.sc, 2)
	if err != nil {
		lr.err = err
		return
	}
	r := lr.bench("scenario.load", "scenario", func(b *testing.B, derr *error) {
		for i := 0; i < b.N; i++ {
			if _, err := scenario.Load(bytes.NewReader(doc)); err != nil {
				*derr = err
				return
			}
		}
	})
	lr.m["scenario.load_us"] = nsPerOp(r) / 1e3
	s, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		lr.err = err
		return
	}
	r = lr.bench("scenario.fingerprint", "scenario", func(b *testing.B, derr *error) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Fingerprint(); err != nil {
				*derr = err
				return
			}
		}
	})
	lr.m["scenario.fingerprint_us"] = nsPerOp(r) / 1e3
	r = lr.bench("scenario.lower", "scenario", func(b *testing.B, derr *error) {
		for i := 0; i < b.N; i++ {
			if _, err := s.TransConfig(); err != nil {
				*derr = err
				return
			}
		}
	})
	lr.m["scenario.lower_us"] = nsPerOp(r) / 1e3
}

// mixDriverOps is the number of requests each client sends in the server
// driver: a quarter of them misses.
const mixDriverOps = 40

// serverDrivers: a cache hit through the handler with no TCP, then a
// short closed loop over loopback for the per-phase latencies.
func (lr *layerRun) serverDrivers() {
	doc, err := missDoc(lr.sc, 3)
	if err != nil {
		lr.err = err
		return
	}
	r := lr.bench("server.hit_handler", "server", func(b *testing.B, derr *error) {
		srv := server.New(server.Config{})
		defer srv.Shutdown(context.Background())
		h := srv.Handler()
		serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
			return rec
		}
		rec := serve(http.MethodPost, "/v1/runs", doc)
		if rec.Code != http.StatusAccepted {
			*derr = fmt.Errorf("submit: status %d", rec.Code)
			return
		}
		serve(http.MethodGet, rec.Header().Get("Location")+"/progress", nil) // returns once the run is done
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := serve(http.MethodPost, "/v1/runs", doc); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
				*derr = fmt.Errorf("hit %d: status %d, X-Cache %q", i, rec.Code, rec.Header().Get("X-Cache"))
				return
			}
		}
	})
	lr.m["server.hit_handler_us"] = nsPerOp(r) / 1e3

	sp := lr.tr.start("server.loop", "driver:server", 0)
	defer lr.tr.end(sp)
	svc := startService()
	res := mixLoop(svc, lr.sc, 1, 4, mixDriverOps, time.Time{}, nil)
	submitted, hits, cerr := svc.cacheCounts()
	if err := svc.close(); err != nil && cerr == nil {
		cerr = err
	}
	switch {
	case res.failed > 0:
		cerr = fmt.Errorf("server loop: %d failed requests: %v", res.failed, res.errs)
	case cerr == nil && float64(hits)/float64(hits+submitted) != 0.75:
		cerr = fmt.Errorf("server loop: cache hit ratio %d/%d, want 0.75", hits, hits+submitted)
	}
	if cerr != nil && lr.err == nil {
		lr.err = cerr
	}
	lr.m["server.submit_ms_p50"] = pctMS(res.submit, 50)
	lr.m["server.wait_ms_p50"] = pctMS(res.wait, 50)
	lr.m["server.result_ms_p50"] = pctMS(res.result, 50)
	lr.m["server.miss_ms_p50"] = pctMS(res.misses, 50)
	lr.m["server.miss_ms_p95"] = pctMS(res.misses, 95)
	lr.m["server.hit_ms_p50"] = pctMS(res.hits, 50)
	lr.m["server.hit_ms_p90"] = pctMS(res.hits, 90)
	lr.m["server.hit_ms_p99"] = pctMS(res.hits, 99)
	if hits+submitted > 0 {
		lr.m["server.cache_hit_ratio"] = float64(hits) / float64(hits+submitted)
	}
}

// pctMS is the nearest-rank percentile of ds in milliseconds.
func pctMS(ds []time.Duration, p float64) float64 {
	var l stats.Latency
	for _, d := range ds {
		l.Record(d.Nanoseconds())
	}
	return float64(l.Percentile(p)) / 1e6
}

// perLayer are the metrics a traced run reports, in table order. Every
// traced run reports all of them; a count a workload's path does not
// reach (NIU stalls on a packet workload, say) is 0.
var perLayer = []metricDef{
	{"sim.edge_ns", "ns"},
	{"sim.events_per_txn", "count"},
	{"soc.idle_cycle_ns.crossbar", "ns"},
	{"soc.idle_cycle_ns.mesh", "ns"},
	{"soc.idle_cycle_allocs", "count"},
	{"soc.idle_share", "ratio"},
	{"soc.build_ms", "ms"},
	{"protocols.axi.marginal_ns", "ns"},
	{"protocols.ocp.marginal_ns", "ns"},
	{"protocols.ahb.marginal_ns", "ns"},
	{"protocols.pvci.marginal_ns", "ns"},
	{"protocols.bvci.marginal_ns", "ns"},
	{"protocols.avci.marginal_ns", "ns"},
	{"protocols.prop.marginal_ns", "ns"},
	{"protocols.wb.marginal_ns", "ns"},
	{"protocols.axi.marginal_allocs", "count"},
	{"protocols.ocp.marginal_allocs", "count"},
	{"protocols.ahb.marginal_allocs", "count"},
	{"protocols.pvci.marginal_allocs", "count"},
	{"protocols.bvci.marginal_allocs", "count"},
	{"protocols.avci.marginal_allocs", "count"},
	{"protocols.prop.marginal_allocs", "count"},
	{"protocols.wb.marginal_allocs", "count"},
	{"niu.engine_rt_ns", "ns"},
	{"niu.engine_rt_allocs", "count"},
	{"niu.stall_cycles_per_txn", "cycles"},
	{"niu.peak_table", "count"},
	{"core.req_codec_ns", "ns"},
	{"core.rsp_codec_ns", "ns"},
	{"core.codec_allocs", "count"},
	{"transport.pkt_ns", "ns"},
	{"transport.pkt_allocs", "count"},
	{"transport.mesh_busy_cycle_ns", "ns"},
	{"transport.mesh_idle_cycle_ns", "ns"},
	{"transport.flit_ns", "ns"},
	{"transport.hybrid_idle_cycle_ns", "ns"},
	{"transport.hybrid_pkt_ns", "ns"},
	{"transport.analytic_frac", "ratio"},
	{"transport.flits_per_txn", "count"},
	{"transport.stall_frac", "ratio"},
	{"traffic.backpressure_per_txn", "count"},
	{"scenario.load_us", "us"},
	{"scenario.fingerprint_us", "us"},
	{"scenario.lower_us", "us"},
	{"server.hit_handler_us", "us"},
	{"server.submit_ms_p50", "ms"},
	{"server.wait_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.miss_ms_p95", "ms"},
	{"server.hit_ms_p50", "ms"},
	{"server.hit_ms_p90", "ms"},
	{"server.hit_ms_p99", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"bench.trace_overhead", "ratio"},
}
