package traffic

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

// recorder is a probe that keeps every event, in emission order.
type recorder []obs.Event

func (r *recorder) Event(ev obs.Event) { *r = append(*r, ev) }

// declining is a recorder that declines buffer samples, so the fabric
// it watches may sleep while it holds no packet.
type declining struct{ *recorder }

func (declining) SamplesBuffers() bool { return false }

// probeMode selects the probe a differential run attaches.
type probeMode int

const (
	noProbe   probeMode = iota
	allKinds            // a recorder of every event, buffer samples too
	noSamples           // a recorder that declines buffer samples
)

func (m probeMode) String() string { return [...]string{"none", "all", "no-samples"}[m] }

// attach returns the mode's probe, recording into tr (nil for none).
func (m probeMode) attach(tr *socTrace) obs.Probe {
	switch m {
	case allKinds:
		return &tr.Events
	case noSamples:
		return declining{&tr.Events}
	}
	return nil
}

// socTrace is everything a differential run compares: the result bytes,
// every stats struct the build exposes, every pipe's statistics and the
// probe's event stream.
type socTrace struct {
	Result  string
	NIUs    string
	Routers string
	Pipes   []sim.PipeStats
	Events  recorder
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sysStats digests the NIU and router stats of a built SoC.
func sysStats(t *testing.T, s *soc.System) (nius, routers string) {
	names := func(m map[string]any) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	all := map[string]any{}
	for k, n := range s.MasterNIUs {
		all["m."+k] = n.Stats()
	}
	for k, n := range s.SlaveNIUs {
		all["s."+k] = n.Stats()
	}
	var b []string
	for _, k := range names(all) {
		b = append(b, k+"="+mustJSON(t, all[k]))
	}
	nius = fmt.Sprint(b)
	if s.Net != nil {
		var rs []transport.RouterStats
		for _, r := range s.Net.Routers() {
			rs = append(rs, r.Stats())
		}
		routers = mustJSON(t, rs)
	}
	return nius, routers
}

// runGens runs the generator workload (nocsim's) on one build; topo 5
// is the Fig 2 bus.
func runGens(t *testing.T, cfg soc.Config, topo int, probe probeMode, every bool) socTrace {
	var tr socTrace
	cfg.Probe = probe.attach(&tr)
	var s *soc.System
	if topo == 5 {
		s = soc.BuildBus(cfg)
	} else {
		cfg.Topology = soc.Topology(topo)
		s = soc.BuildNoC(cfg)
	}
	if every {
		s.Clk.EvalEveryCycle()
	}
	cycles, err := s.Run(2_000_000)
	type genDigest struct {
		Issued, Completed, Mismatches, Errors int
		Latency                               stats.LatencySummary
	}
	gens := map[string]genDigest{}
	for name, g := range s.Gens {
		st := g.Stats()
		gens[name] = genDigest{st.Issued, st.Completed, st.Mismatches, st.Errors, st.Latency.Summary()}
	}
	tr.Result = mustJSON(t, struct {
		Cycles int64
		Err    string
		Gens   map[string]genDigest
	}{cycles, fmt.Sprint(err), gens})
	tr.NIUs, tr.Routers = sysStats(t, s)
	tr.Pipes = s.Clk.PipeStats()
	return tr
}

func runTransTrace(t *testing.T, tc TransConfig, probe probeMode, every bool) socTrace {
	var tr socTrace
	tc.Probe = probe.attach(&tr)
	var sys *soc.System
	res := runTrans(tc, func(s *soc.System) {
		sys = s
		if every {
			s.Clk.EvalEveryCycle()
		}
	})
	tr.Result = mustJSON(t, res)
	tr.NIUs, tr.Routers = sysStats(t, sys)
	tr.Pipes = sys.Clk.PipeStats()
	return tr
}

func runPacketTrace(t *testing.T, cfg Config, probe probeMode, every bool) socTrace {
	var tr socTrace
	cfg.Probe = probe.attach(&tr)
	cfg = cfg.withDefaults()
	r := newRig(&cfg)
	if every {
		r.clk.EvalEveryCycle()
	}
	tr.Result = mustJSON(t, runDigest(r))
	var rs []transport.RouterStats
	for _, rt := range r.net.Routers() {
		rs = append(rs, rt.Stats())
	}
	tr.Routers = mustJSON(t, rs)
	tr.Pipes = r.clk.PipeStats()
	return tr
}

func compareTraces(t *testing.T, what string, ref, got socTrace) {
	t.Helper()
	if ref.Result != got.Result {
		t.Fatalf("%s: result differs\nreference  %s\nactive set %s", what, ref.Result, got.Result)
	}
	if ref.NIUs != got.NIUs {
		t.Fatalf("%s: NIU stats differ\nreference  %s\nactive set %s", what, ref.NIUs, got.NIUs)
	}
	if ref.Routers != got.Routers {
		t.Fatalf("%s: router stats differ\nreference  %s\nactive set %s", what, ref.Routers, got.Routers)
	}
	if !reflect.DeepEqual(ref.Pipes, got.Pipes) {
		t.Fatalf("%s: pipe stats differ\nreference  %+v\nactive set %+v", what, ref.Pipes, got.Pipes)
	}
	if len(ref.Events) != len(got.Events) {
		t.Fatalf("%s: probe saw %d events under the reference, %d under the active set", what, len(ref.Events), len(got.Events))
	}
	for i := range ref.Events {
		if ref.Events[i] != got.Events[i] {
			t.Fatalf("%s: probe event %d differs\nreference  %+v\nactive set %+v", what, i, ref.Events[i], got.Events[i])
		}
	}
}

// FuzzActiveSetMatchesReference differentially tests the clock's active
// set against its evaluate-everything reference mode. Each input draws a
// build — topology (five NoC shapes or the Fig 2 bus), the Wishbone
// socket, switching mode, seed and request count (whose top bit selects
// hybrid fidelity, where the fabric never sleeps but the NIUs and IP
// do) — and runs the generator workload on it, plus one RunTrans run
// and one packet Run on the same fabric shape (open or closed loop, at
// rates down to 0.002, where sources sleep between draws), each with no
// probe, with a recorder of every event (whose fabric never sleeps) and
// with a recorder that declines buffer samples (whose fabric sleeps when
// empty). Bit 0x20 of the request count gives the RunTrans and packet
// runs one-flit lanes (where the fabric allows them): a lane refilled
// only every other cycle leaves a held output with no flit to move, a
// wormhole bubble whose stall the switch counts. Under the reference
// mode the fabric also evaluates every switch and commits every lane on
// every edge, so its idle-switch skip and its commit list are compared
// with the full sweep as well. Result bytes, every NIU, generator and
// router stats struct, every pipe's statistics and the probe's full
// event stream must be identical.
func FuzzActiveSetMatchesReference(f *testing.F) {
	for topo := 0; topo < 6; topo++ {
		f.Add(uint8(topo), topo%2 == 0, topo%3 == 1, int64(topo+1), uint8(3+topo))
	}
	f.Add(uint8(1), true, true, int64(97), uint8(9))
	f.Add(uint8(0), true, false, int64(11), uint8(0x85))
	f.Add(uint8(1), false, false, int64(5), uint8(0x44))
	f.Add(uint8(4), true, true, int64(8), uint8(0x4b))
	f.Add(uint8(1), false, false, int64(3), uint8(0x22))
	f.Add(uint8(0), true, false, int64(6), uint8(0x63))
	f.Add(uint8(2), false, false, int64(12), uint8(0xa1))
	f.Fuzz(func(t *testing.T, topoRaw uint8, wishbone, saf bool, seed int64, reqRaw uint8) {
		topo := int(topoRaw % 6)
		var net transport.NetConfig
		if reqRaw&0x80 != 0 {
			net.Fidelity = transport.FidelityHybrid
		}
		if saf {
			net.Mode = transport.StoreAndForward
			net.BufDepth = 64 // whole packets, as nocsim sizes them
		}
		cfg := soc.Config{Seed: seed, RequestsPerMaster: 1 + int(reqRaw%10), Wishbone: wishbone, Net: net}
		for _, probe := range []probeMode{noProbe, allKinds, noSamples} {
			what := fmt.Sprintf("gens topo=%d wb=%v saf=%v seed=%d req=%d fidelity=%v probe=%v", topo, wishbone, saf, seed, cfg.RequestsPerMaster, net.Fidelity, probe)
			compareTraces(t, what, runGens(t, cfg, topo, probe, true), runGens(t, cfg, topo, probe, false))
		}
		if topo == 5 {
			return // RunTrans and the packet rig have no bus form
		}
		if reqRaw&0x20 != 0 && !saf {
			net.BufDepth = 1 // raised to whole packets where the fabric needs them
		}
		tc := TransConfig{
			Seed: seed, Topology: soc.Topology(topo), Wishbone: wishbone, Net: net,
			Rate: 0.02 + float64(reqRaw%4)*0.02, Window: 1 + int(reqRaw%3), Bytes: 16 << (reqRaw % 3),
			Warmup: 50, Measure: 300, Drain: 20_000,
		}
		pc := Config{
			Seed: seed, Nodes: 8, Topology: []Topology{Crossbar, Mesh, Tree, Torus, Ring}[topo], Net: net,
			Rate: []float64{0.002, 0.01, 0.03, 0.05}[reqRaw%4], Warmup: 50, Measure: 300, Drain: 20_000,
			ClosedLoop: reqRaw&0x40 != 0, Window: 1 + int(reqRaw%3),
		}
		for _, probe := range []probeMode{noProbe, allKinds, noSamples} {
			what := fmt.Sprintf("trans topo=%d wb=%v saf=%v seed=%d fidelity=%v probe=%v", topo, wishbone, saf, seed, net.Fidelity, probe)
			compareTraces(t, what, runTransTrace(t, tc, probe, true), runTransTrace(t, tc, probe, false))
			what = fmt.Sprintf("packet topo=%d saf=%v seed=%d rate=%v closed=%v fidelity=%v probe=%v", topo, saf, seed, pc.Rate, pc.ClosedLoop, net.Fidelity, probe)
			compareTraces(t, what, runPacketTrace(t, pc, probe, true), runPacketTrace(t, pc, probe, false))
		}
	})
}

// runDigest runs a built rig and digests it as Run does, per-flow
// digests included.
func runDigest(r *rig) Result {
	r.run()
	res := r.result()
	res.Flows = flowStats(r.col.flows)
	return res
}

// TestSourcesSleepBetweenDraws: an open-loop source draws its injection
// decisions ahead and sleeps until the next one, so a lightly loaded
// 64-node mesh evaluates under a tenth of the component-cycles the
// evaluate-everything reference does, with identical result bytes.
func TestSourcesSleepBetweenDraws(t *testing.T) {
	cfg := Config{
		Seed: 3, Nodes: 64, Topology: Mesh, Pattern: UniformRandom, Rate: 0.002,
		Warmup: 500, Measure: 4000, Drain: 20_000,
	}
	run := func(every bool) (string, uint64) {
		c := cfg.withDefaults()
		r := newRig(&c)
		if every {
			r.clk.EvalEveryCycle()
		}
		res := mustJSON(t, runDigest(r))
		return res, r.clk.Evals()
	}
	ref, refEvals := run(true)
	got, evals := run(false)
	if got != ref {
		t.Fatalf("result differs\nreference  %s\nactive set %s", ref, got)
	}
	if evals*10 >= refEvals {
		t.Fatalf("evaluated %d component-cycles, the reference %d: sources do not sleep between draws", evals, refEvals)
	}
	t.Logf("evaluated %d component-cycles, the reference %d (%.3f)", evals, refEvals, float64(evals)/float64(refEvals))
}
