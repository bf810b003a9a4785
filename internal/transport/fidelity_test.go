package transport

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// The loose engine's claim is precise: at zero contention the analytic
// model reproduces the cycle-accurate fabric's externally visible
// behaviour *exactly* — same TransitRecord cycles, same delivery order,
// same payload bytes, same send-window backpressure. These tests drive
// identical workloads through a cycle-accurate fabric and a hybrid one
// and require byte-equal observations.

// transitObs is the comparable projection of one packet journey.
type transitObs struct {
	Src, Dst noctypes.NodeID
	Tag      noctypes.Tag
	Queued   int64
	Inject   int64
	Eject    int64
	Hops     int
}

// deliveryObs is one packet as the consumer saw it: arrival cycle,
// identity, and a payload digest (checks the loose path's copy-on-send).
type deliveryObs struct {
	At       int64
	Node     noctypes.NodeID
	Src      noctypes.NodeID
	Tag      noctypes.Tag
	PayLen   int
	PaySum   uint64
	Priority noctypes.Priority
}

// fidelityBurst is one same-pair packet train; bursts run sequentially,
// each starting only after the fabric drains — the zero-contention
// regime where the analytic model must be exact.
type fidelityBurst struct {
	src, dst noctypes.NodeID
	count    int
	payload  []int // payload bytes per packet
}

// tickComp adapts a function into a clocked component so test drivers
// send from Eval context, like traffic sources and NIUs do.
type tickComp struct{ fn func(cycle int64) }

func (t tickComp) Eval(cycle int64) { t.fn(cycle) }

func buildFidelityNet(topo Topology, cfg NetConfig, n int) (*sim.Clock, *Network) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "noc", sim.Nanosecond, 0)
	nodes := make([]noctypes.NodeID, n)
	for i := range nodes {
		nodes[i] = noctypes.NodeID(i + 1)
	}
	w := int(math.Ceil(math.Sqrt(float64(n))))
	return clk, Build(clk, cfg, Shape{Topology: topo, W: w, H: (n + w - 1) / w, Fanout: 3}, nodes)
}

// runFidelitySchedule drives the bursts through one fabric and returns
// every observation the outside world could make, and how the fabric
// classified the packets.
func runFidelitySchedule(t *testing.T, topo Topology, cfg NetConfig, bursts []fidelityBurst) ([]transitObs, []deliveryObs, FidelityStats) {
	t.Helper()
	maxNode := 0
	for _, b := range bursts {
		if int(b.src) > maxNode {
			maxNode = int(b.src)
		}
		if int(b.dst) > maxNode {
			maxNode = int(b.dst)
		}
	}
	clk, net := buildFidelityNet(topo, cfg, maxNode)

	var transits []transitObs
	var delivered []deliveryObs
	net.OnTransit = func(rec TransitRecord) {
		transits = append(transits, transitObs{
			Src: rec.Pkt.Src, Dst: rec.Pkt.Dst, Tag: rec.Pkt.Tag,
			Queued: rec.QueuedCycle, Inject: rec.InjectCycle,
			Eject: rec.EjectCycle, Hops: rec.Hops,
		})
	}

	bi, sent := 0, 0
	done := false
	var scratch []*Packet
	clk.Register(tickComp{fn: func(cycle int64) {
		// Consume first: every endpoint drains its receive queue each
		// cycle, the regime traffic sources run in.
		for _, nd := range net.Nodes() {
			ep := net.Endpoint(nd)
			scratch = ep.RecvAll(scratch[:0])
			for _, p := range scratch {
				var sum uint64
				for _, by := range p.Payload {
					sum = sum*131 + uint64(by)
				}
				delivered = append(delivered, deliveryObs{
					At: cycle, Node: nd, Src: p.Src, Tag: p.Tag,
					PayLen: len(p.Payload), PaySum: sum, Priority: p.Priority,
				})
				net.Recycle(p)
			}
		}
		if done {
			return
		}
		b := bursts[bi]
		for sent < b.count {
			p := net.NewPacket(b.payload[sent])
			p.Kind = KindReq
			p.Src = b.src
			p.Dst = b.dst
			p.Tag = noctypes.Tag(sent)
			p.Priority = noctypes.PrioDefault
			for i := range p.Payload {
				p.Payload[i] = byte(int(b.src)*7 + sent*13 + i)
			}
			if !net.Endpoint(b.src).TrySend(p) {
				net.Recycle(p)
				return // backpressure: retry next cycle
			}
			net.Recycle(p)
			sent++
		}
		if net.Drained() {
			bi++
			sent = 0
			if bi == len(bursts) {
				done = true
			}
		}
	}})

	for c := 0; c < 200000; c++ {
		clk.RunCycles(1)
		if done && net.Drained() {
			clk.RunCycles(4) // let the last receive-queue commits land
			return transits, delivered, net.FidelityStats()
		}
	}
	t.Fatalf("schedule incomplete after 200000 cycles (burst %d/%d, in flight %d)",
		bi, len(bursts), net.InFlight())
	return nil, nil, FidelityStats{}
}

// compareFidelity runs the same schedule cycle-accurately and at the
// given fidelity, and requires identical observations.
func compareFidelity(t *testing.T, topo Topology, cfg NetConfig, fid Fidelity, bursts []fidelityBurst) {
	t.Helper()
	cfgCycle := cfg
	cfgCycle.Fidelity = FidelityCycle
	cfgLoose := cfg
	cfgLoose.Fidelity = fid

	wantT, wantD, _ := runFidelitySchedule(t, topo, cfgCycle, bursts)
	gotT, gotD, _ := runFidelitySchedule(t, topo, cfgLoose, bursts)

	if len(gotT) != len(wantT) {
		t.Fatalf("%s/%v: %d transits, cycle-accurate %d", topo, fid, len(gotT), len(wantT))
	}
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Fatalf("%s/%v: transit %d = %+v, cycle-accurate %+v", topo, fid, i, gotT[i], wantT[i])
		}
	}
	if len(gotD) != len(wantD) {
		t.Fatalf("%s/%v: %d deliveries, cycle-accurate %d", topo, fid, len(gotD), len(wantD))
	}
	for i := range wantD {
		if gotD[i] != wantD[i] {
			t.Fatalf("%s/%v: delivery %d = %+v, cycle-accurate %+v", topo, fid, i, gotD[i], wantD[i])
		}
	}
}

func seqBursts(rng *rand.Rand, n int, count int, maxPay int) []fidelityBurst {
	var bursts []fidelityBurst
	for len(bursts) < count {
		src := noctypes.NodeID(rng.Intn(n) + 1)
		dst := noctypes.NodeID(rng.Intn(n) + 1)
		if src == dst {
			continue
		}
		b := fidelityBurst{src: src, dst: dst, count: rng.Intn(4) + 1}
		for i := 0; i < b.count; i++ {
			b.payload = append(b.payload, rng.Intn(maxPay+1))
		}
		bursts = append(bursts, b)
	}
	return bursts
}

func TestLooseExactUncontended(t *testing.T) {
	// BufDepth: 16 holds the largest packet (10 flits) whole — required
	// by SAF and by cut-through admission on ring/torus. SAF trains are
	// exact only while two consecutive packets fit in one lane
	// (no buffer squeeze), hence 20 = 2x the largest packet there.
	modes := []NetConfig{
		{BufDepth: 16},
		{Mode: StoreAndForward, BufDepth: 20},
	}
	for _, topo := range Topologies() {
		for mi, cfg := range modes {
			t.Run(fmt.Sprintf("%s/m%d/%v", topo, mi, FidelityHybrid), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(42 + mi)))
				bursts := seqBursts(rng, 9, 12, 64)
				compareFidelity(t, topo, cfg, FidelityHybrid, bursts)
			})
		}
	}
}

// FuzzLooseLatencyExact is the satellite property test: for random
// small topologies, switching modes, flit widths, and same-pair packet
// trains, hybrid-mode zero-contention runs must produce exactly the
// cycle-accurate latency — the analytic model is exact when queueing
// is zero.
func FuzzLooseLatencyExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(6), uint8(1), int64(1))
	f.Add(uint8(1), uint8(1), uint8(9), uint8(0), int64(2))
	f.Add(uint8(2), uint8(0), uint8(8), uint8(2), int64(3))
	f.Add(uint8(3), uint8(1), uint8(5), uint8(1), int64(4))
	f.Add(uint8(4), uint8(0), uint8(12), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, topoSel, modeSel, nodeSel, flitSel uint8, seed int64) {
		topo := Topologies()[int(topoSel)%5]
		n := 4 + int(nodeSel)%10 // 4..13 endpoints
		cfg := NetConfig{
			FlitBytes: []int{4, 8, 16}[int(flitSel)%3],
		}
		maxPay := 48
		if modeSel%2 == 1 {
			cfg.Mode = StoreAndForward
		}
		// Whole-packet buffering (SAF, and cut-through on ring/torus)
		// needs BufDepth >= the largest packet's flit count; SAF trains
		// additionally need room for two consecutive packets per lane
		// (no buffer squeeze) for the model to stay exact.
		fb := cfg.FlitBytes
		maxNf := (HeaderBytes + maxPay + fb - 1) / fb
		cfg.BufDepth = maxNf + 2
		if cfg.Mode == StoreAndForward {
			cfg.BufDepth = 2*maxNf + 2
		}
		rng := rand.New(rand.NewSource(seed))
		bursts := seqBursts(rng, n, 8, maxPay)
		compareFidelity(t, topo, cfg, FidelityHybrid, bursts)
	})
}

// TestFidelityCycleInert pins the knob's off position: a cycle-accurate
// fabric carries no engine and reports zero fidelity activity.
func TestFidelityCycleInert(t *testing.T) {
	tn := newXbar(NetConfig{Fidelity: FidelityCycle}, 1, 2)
	if tn.net.loose != nil {
		t.Fatal("cycle-accurate fabric built a loose engine")
	}
	tn.net.Endpoint(1).TrySend(pkt(1, 2, "plain"))
	tn.runUntilDrained(t, 100)
	if s := tn.net.FidelityStats(); s != (FidelityStats{}) {
		t.Fatalf("cycle-accurate fabric reported fidelity stats %+v", s)
	}
	if _, ok := tn.net.Endpoint(2).Recv(); !ok {
		t.Fatal("packet lost")
	}
}

// TestHybridFallbackUnderLoad drives a hotspot well past the
// utilization threshold and checks that hybrid mode actually falls
// back (packets ride the flit path) while conserving every packet.
func TestHybridFallbackUnderLoad(t *testing.T) {
	clk, net := buildFidelityNet(Crossbar, NetConfig{Fidelity: FidelityHybrid}, 5)
	hot := noctypes.NodeID(1)
	sent, got := 0, 0
	clk.Register(tickComp{fn: func(cycle int64) {
		for _, nd := range net.Nodes() {
			ep := net.Endpoint(nd)
			for {
				p, ok := ep.Recv()
				if !ok {
					break
				}
				got++
				net.Recycle(p)
			}
			if nd == hot || cycle > 4000 {
				continue
			}
			p := net.NewPacket(32)
			p.Kind = KindReq
			p.Src = nd
			p.Dst = hot
			if ep.TrySend(p) {
				sent++
			}
			net.Recycle(p)
		}
	}})
	for c := 0; c < 20000; c++ {
		clk.RunCycles(1)
		if c > 4100 && net.Drained() {
			break
		}
	}
	clk.RunCycles(4)
	// Drain the last committed deliveries.
	for _, nd := range net.Nodes() {
		ep := net.Endpoint(nd)
		for {
			p, ok := ep.Recv()
			if !ok {
				break
			}
			got++
			net.Recycle(p)
		}
	}
	if !net.Drained() {
		t.Fatalf("fabric not drained (in flight %d)", net.InFlight())
	}
	if got != sent {
		t.Fatalf("conservation: sent %d, delivered %d", sent, got)
	}
	s := net.FidelityStats()
	if s.FallbackPkts == 0 {
		t.Fatalf("no hybrid fallback under 4x-threshold hotspot load (stats %+v)", s)
	}
	if s.AnalyticPkts == 0 {
		t.Fatalf("no analytic packets at all (stats %+v)", s)
	}
}

// TestLooseDeterminism: two identical hybrid runs observe identical
// histories — the approximate mode is still seed-deterministic — on a
// schedule that heats links past the fallback threshold, so both paths
// carry packets.
func TestLooseDeterminism(t *testing.T) {
	cfg := NetConfig{Fidelity: FidelityHybrid}
	rng1 := rand.New(rand.NewSource(7))
	b1 := seqBursts(rng1, 8, 40, 400)
	t1, d1, s1 := runFidelitySchedule(t, Mesh, cfg, b1)
	rng2 := rand.New(rand.NewSource(7))
	b2 := seqBursts(rng2, 8, 40, 400)
	t2, d2, s2 := runFidelitySchedule(t, Mesh, cfg, b2)
	for _, s := range []FidelityStats{s1, s2} {
		if s.AnalyticPkts == 0 || s.FallbackPkts == 0 {
			t.Fatalf("schedule does not mix the paths: %+v", s)
		}
	}
	if len(t1) != len(t2) || len(d1) != len(d2) {
		t.Fatalf("replay diverged: %d/%d transits, %d/%d deliveries", len(t1), len(t2), len(d1), len(d2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("transit %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery %d: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

func TestParseFidelity(t *testing.T) {
	cases := []struct {
		in   string
		want Fidelity
		ok   bool
	}{
		{"", FidelityCycle, true},
		{"cycle", FidelityCycle, true},
		{"Hybrid", FidelityHybrid, true},
		{" hybrid ", FidelityHybrid, true},
		{"loose", 0, false},
		{"fast", 0, false},
		{"approximate", 0, false},
	}
	for _, c := range cases {
		got, err := ParseFidelity(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Fatalf("ParseFidelity(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, f := range []Fidelity{FidelityCycle, FidelityHybrid} {
		back, err := ParseFidelity(f.String())
		if err != nil || back != f {
			t.Fatalf("round trip %v -> %q -> %v, %v", f, f.String(), back, err)
		}
	}
}

// TestLockedFabricStaysCycleAccurate: legacy-lock fabrics carry switch
// state the model cannot see, so hybrid fidelity routes them through
// the flit path even while every link is cold.
func TestLockedFabricStaysCycleAccurate(t *testing.T) {
	cfg := NetConfig{Fidelity: FidelityHybrid, LegacyLock: true}
	clk, net := buildFidelityNet(Crossbar, cfg, 3)
	sentOK := false
	clk.Register(tickComp{fn: func(cycle int64) {
		if sentOK {
			return
		}
		p := net.NewPacket(8)
		p.Kind = KindReq
		p.Src = 1
		p.Dst = 2
		sentOK = net.Endpoint(1).TrySend(p)
		net.Recycle(p)
	}})
	clk.RunCycles(50)
	if !sentOK {
		t.Fatal("send refused")
	}
	if s := net.FidelityStats(); s.AnalyticPkts != 0 {
		t.Fatalf("legacy-lock fabric priced a packet analytically: %+v", s)
	}
	if _, ok := net.Endpoint(2).Recv(); !ok {
		t.Fatal("packet lost")
	}
}

// TestLooseRouteArenaMatchesPath: for every ordered endpoint pair on
// every topology, the route the loose engine walks into its arena is
// Network.Path's, each switch output mapped to its flat link index; a
// second lookup returns the same links without growing the arena.
func TestLooseRouteArenaMatchesPath(t *testing.T) {
	for _, topo := range Topologies() {
		_, net := buildFidelityNet(topo, NetConfig{Fidelity: FidelityHybrid}, 9)
		le := net.loose
		le.init()
		for _, src := range net.epList {
			for _, dst := range net.epList {
				var want []int32
				for _, l := range net.Path(src.node, dst.node) {
					want = append(want, le.linkBase[l.Router]+int32(l.Port))
				}
				got := le.pathFor(src, dst)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %v->%v: arena links %v, Path %v", topo, src.node, dst.node, got, want)
				}
				n := len(le.arena)
				if again := le.pathFor(src, dst); fmt.Sprint(again) != fmt.Sprint(want) || len(le.arena) != n {
					t.Fatalf("%s %v->%v: second lookup %v, arena %d -> %d", topo, src.node, dst.node, again, n, len(le.arena))
				}
			}
		}
	}
}

// TestLooseEventOrder: events fire by cycle and, within one cycle, in
// the order they were scheduled, including an event rescheduled from
// its slot (a delivery's backpressure retry) and events scheduled past
// the wheel's span, which grow it.
func TestLooseEventOrder(t *testing.T) {
	_, net := buildFidelityNet(Crossbar, NetConfig{Fidelity: FidelityHybrid}, 2)
	le := net.loose
	rng := rand.New(rand.NewSource(3))
	type tagged struct{ cycle, tag int64 }
	var want []tagged
	for i := 0; i < 300; i++ {
		c := 1 + int64(rng.Intn(5))
		if i%50 == 49 {
			c = 1 + int64(rng.Intn(1000))
		}
		le.push(c, looseEvent{times: pktTimes{queued: int64(i)}})
		want = append(want, tagged{c, int64(i)})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].cycle < want[j].cycle })

	var got []tagged
	slot, due, ok := le.next(want[0].cycle)
	if !ok {
		t.Fatal("nothing due")
	}
	got = append(got, tagged{due, le.slab[slot].times.queued})
	le.schedule(5, slot)
	want = append(want, tagged{5, want[0].tag})
	sort.SliceStable(want[1:], func(i, j int) bool { return want[1+i].cycle < want[1+j].cycle })

	for cycle := int64(1); cycle <= 1000; cycle++ {
		for {
			slot, due, ok := le.next(cycle)
			if !ok {
				break
			}
			got = append(got, tagged{due, le.slab[slot].times.queued})
		}
	}
	if le.queued != 0 {
		t.Fatalf("%d events left in the calendar", le.queued)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firing order\n got %v\nwant %v", got, want)
	}
}

// TestLooseSteadyStateAllocFree: once the route arena holds every pair
// and the event slab and calendar have grown, analytic traffic
// allocates nothing — sends, event scheduling, deliveries and recycled
// packets all reuse what the first rounds built.
func TestLooseSteadyStateAllocFree(t *testing.T) {
	clk, net := buildFidelityNet(Mesh, NetConfig{Fidelity: FidelityHybrid}, 9)
	eps := net.epList
	p := &Packet{Header: Header{Kind: KindReq}, Payload: make([]byte, 24)}
	var rx []*Packet
	round := func() {
		for _, src := range eps {
			for _, dst := range eps {
				if src == dst {
					continue
				}
				p.Src, p.Dst = src.node, dst.node
				for !src.TrySend(p) {
					clk.RunCycles(1)
				}
			}
			clk.RunCycles(1)
		}
		for !net.Drained() {
			clk.RunCycles(1)
		}
		clk.RunCycles(2) // the last receive-queue commits
		for _, ep := range eps {
			rx = ep.RecvAll(rx[:0])
			for _, q := range rx {
				net.Recycle(q)
			}
		}
	}
	clk.RunCycles(100000) // the calendar starts at the first send, not at cycle 0
	round()
	round()
	le := net.loose
	arena, slab, wheel := len(le.arena), len(le.slab), len(le.wheel)
	if arena == 0 || slab == 0 || wheel > 1024 {
		t.Fatalf("warm-up rounds built %d links, %d events and a %d-cycle wheel", arena, slab, wheel)
	}
	// Race instrumentation allocates, so under -race only the sizes
	// are checked.
	if avg := testing.AllocsPerRun(20, round); avg != 0 && !raceEnabled {
		t.Fatalf("analytic round allocates %.2f objects, want 0", avg)
	}
	// AllocsPerRun truncates its average; a structure that kept growing
	// by a doubling now and then would hide there, so check the sizes.
	if len(le.arena) != arena || len(le.slab) != slab || len(le.wheel) != wheel {
		t.Fatalf("after warm-up: arena %d -> %d links, slab %d -> %d events, wheel %d -> %d cycles",
			arena, len(le.arena), slab, len(le.slab), wheel, len(le.wheel))
	}
	if s := net.FidelityStats(); s.FallbackPkts != 0 {
		t.Fatalf("packets fell back to the flit path: %+v", s)
	}
}
