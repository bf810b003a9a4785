package scenario

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

// minimal returns a small valid packet scenario JSON with room for
// per-test corruption.
func minimalPacket() string {
	return `{
  "version": 1,
  "name": "t",
  "fabric": { "topology": "crossbar", "nodes": 8 },
  "workload": { "kind": "packet", "rate": 0.05 },
  "measure": { "warmup": 100, "measure": 400, "drain": 4000 }
}`
}

func minimalSoC(masters string) string {
	return fmt.Sprintf(`{
  "version": 1,
  "name": "t",
  "fabric": { "topology": "crossbar" },
  "workload": { "kind": "soc", "masters": [%s] },
  "measure": { "warmup": 100, "measure": 400, "drain": 4000 }
}`, masters)
}

// outOfWindow is the whole error for a target outside every memory up
// to the end of its window list: every window mapped in every build, in
// address order.
const outOfWindow = "scenario: workload.masters[0].target: [0x90000000,+0x1000) is not inside any mapped memory window (" +
	"axi-mem [0x10000000,+0x100000), ocp-mem [0x20000000,+0x100000), " +
	"ahb-mem [0x30000000,+0x100000), bvci-mem [0x40000000,+0x100000)"

// TestLoadErrorsNameTheField is the malformed-file table: every rejected
// document must produce an error that names the offending field (or its
// line:column for JSON-level damage).
func TestLoadErrorsNameTheField(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring the error must contain
	}{
		{"unknown protocol",
			minimalSoC(`{"protocol": "pci", "rate": 0.1}`),
			`workload.masters[0].protocol: unknown protocol "pci"`},
		{"zero-rate master",
			minimalSoC(`{"protocol": "axi", "rate": 0}`),
			"workload.masters[0].rate"},
		{"duplicate master",
			minimalSoC(`{"protocol": "axi", "rate": 0.1}, {"protocol": "axi", "rate": 0.2}`),
			`workload.masters[1].protocol: duplicate role for "axi"`},
		{"overlapping address ranges",
			minimalSoC(`{"protocol": "axi", "rate": 0.1, "target": {"base": "0x1004_0000", "size": "0x10000"}},
			            {"protocol": "ocp", "rate": 0.1, "target": {"base": "0x1004_8000", "size": "0x10000"}}`),
			"workload.masters[1].target"},
		{"target outside every memory window",
			minimalSoC(`{"protocol": "axi", "rate": 0.1, "target": {"base": "0x9000_0000", "size": "0x1000"}}`),
			outOfWindow + ")"},
		{"target outside every memory window, wishbone",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1, "target": {"base": "0x9000_0000", "size": "0x1000"}}`),
				`"kind": "soc", `, `"kind": "soc", "wishbone": true, `, 1),
			outOfWindow + ", wb-mem [0x50000000,+0x100000))"},
		{"axi role longer than an AXI burst",
			minimalSoC(`{"protocol": "axi", "rate": 0.1, "bytes": 1028}`),
			"workload.masters[0].bytes: 1028 exceeds 1024, the longest AXI burst (256 beats of 4 bytes)"},
		{"ocp role longer than a request's 16-bit beat count",
			minimalSoC(`{"protocol": "ocp", "rate": 0.1, "bytes": 262148}`),
			"workload.masters[0].bytes: 262148 exceeds 262140, the longest burst one request carries (65535 beats of 4 bytes)"},
		{"wb role longer than a request's 16-bit beat count",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}, {"protocol": "wb", "rate": 0.1, "bytes": 262141}`),
				`"kind": "soc", `, `"kind": "soc", "wishbone": true, `, 1),
			"workload.masters[1].bytes: 262141 exceeds 262140"},
		{"more nodes than 16-bit node IDs",
			strings.Replace(minimalPacket(), `"nodes": 8`, `"nodes": 70000`, 1),
			"fabric.nodes: 70000 exceeds 65534"},
		{"wb role without wishbone",
			minimalSoC(`{"protocol": "wb", "rate": 0.1}`),
			"workload.wishbone"},
		{"unknown topology",
			strings.Replace(minimalPacket(), `"crossbar"`, `"hexagon"`, 1),
			`fabric.topology: unknown topology "hexagon"`},
		{"unknown pattern",
			strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "packet", "pattern": "zipf"`, 1),
			`workload.pattern: unknown pattern "zipf"`},
		{"unknown kind",
			strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "quantum"`, 1),
			"workload.kind"},
		{"bad version",
			strings.Replace(minimalPacket(), `"version": 1`, `"version": 99`, 1),
			"version: unsupported scenario version 99"},
		{"missing name",
			strings.Replace(minimalPacket(), `"name": "t"`, `"name": ""`, 1),
			"name: required"},
		{"hot node out of range",
			strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "packet", "pattern": "hotspot", "hot_node": 99`, 1),
			"workload.hot_node: 99 outside [0,8)"},
		{"hot node out of range, hotspot only on the campaign axis",
			strings.Replace(strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "packet", "hot_node": 99`, 1),
				`"measure": {`, `"measure": { "campaign": {"patterns": ["uniform", "hotspot"], "rates": [0.01]},`, 1),
			"workload.hot_node: 99 outside [0,8) (measure.campaign.patterns[1] is hotspot)"},
		{"legacy lock on a ring packet run",
			strings.Replace(minimalPacket(), `"topology": "crossbar"`, `"topology": "ring", "legacy_lock": true`, 1),
			"fabric.legacy_lock: the legacy-lock service needs a fabric other than a ring or torus (fabric.topology is ring)"},
		{"legacy lock on a torus soc run",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}`), `"topology": "crossbar"`, `"topology": "torus", "legacy_lock": true`, 1),
			"fabric.legacy_lock: the legacy-lock service needs a fabric other than a ring or torus (fabric.topology is torus)"},
		{"legacy lock with a torus only on the campaign axis",
			strings.Replace(strings.Replace(minimalPacket(), `"topology": "crossbar"`, `"topology": "crossbar", "legacy_lock": true`, 1),
				`"measure": {`, `"measure": { "campaign": {"topologies": ["mesh", "torus"]},`, 1),
			"fabric.legacy_lock: the legacy-lock service needs a fabric other than a ring or torus (measure.campaign.topologies[1] is torus)"},
		{"negative warmup",
			strings.Replace(minimalPacket(), `"warmup": 100`, `"warmup": -5`, 1),
			"measure.warmup"},
		{"sweep on soc workload",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}`),
				`"measure": {`, `"measure": { "sweep_rates": [0.01],`, 1),
			"measure.sweep_rates"},
		{"sweep and campaign together",
			strings.Replace(minimalPacket(),
				`"measure": {`, `"measure": { "sweep_rates": [0.01], "campaign": {},`, 1),
			"measure.campaign"},
		{"unknown field with position",
			strings.Replace(minimalPacket(), `"nodes": 8`, `"nodez": 8`, 1),
			`unknown field "nodez"`},
		{"type error with position",
			strings.Replace(minimalPacket(), `"nodes": 8`, `"nodes": "eight"`, 1),
			"4:"},
		{"syntax error with position",
			strings.TrimSuffix(minimalPacket(), "}"),
			"7:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("Load accepted malformed document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offence (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestRoundTrip pins Load∘Save as the identity on every built-in.
func TestRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, _ := Get(name)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		back, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load(Save(s)): %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip changed the scenario:\n%s", name, buf.String())
		}
		var buf2 bytes.Buffer
		if err := back.Save(&buf2); err != nil {
			t.Fatalf("%s: second Save: %v", name, err)
		}
		if buf.String() != buf2.String() {
			t.Fatalf("%s: Save is not byte-stable", name)
		}
	}
}

// TestBuiltins checks the registry invariants: every name validates,
// and Get returns an isolated copy.
func TestBuiltins(t *testing.T) {
	if len(Names()) < 6 {
		t.Fatalf("want at least 6 built-ins, got %v", Names())
	}
	for _, name := range Names() {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("built-in %q invalid: %v", name, err)
		}
		s.Name = "mutated"
		s.Fabric.Topology = "tree"
		if len(s.Workload.Masters) > 0 {
			s.Workload.Masters[0].Rate = 0.999
		}
		again, _ := Get(name)
		if again.Name != name || again.Fabric.Topology == "tree" {
			t.Fatalf("Get(%q) aliases registry state", name)
		}
		if len(again.Workload.Masters) > 0 && again.Workload.Masters[0].Rate == 0.999 {
			t.Fatalf("Get(%q) aliases master roles", name)
		}
	}
}

// TestDeterminism: same scenario + same seed ⇒ bit-identical
// traffic.Result, for both workload kinds.
func TestDeterminism(t *testing.T) {
	packet, err := Load(strings.NewReader(minimalPacket()))
	if err != nil {
		t.Fatal(err)
	}
	socSc, err := Load(strings.NewReader(minimalSoC(
		`{"protocol": "axi", "rate": 0.2, "window": 2},
		 {"protocol": "bvci", "rate": 0.15, "priority": "high",
		  "target": {"base": "0x4004_0000", "size": "0x4000"}}`)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Scenario{packet, socSc} {
		a, err := Execute(s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Mode(), err)
		}
		b, err := Execute(s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Mode(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s scenario is not deterministic across runs", s.Mode())
		}
		if a.Single != nil && a.Single.Latency.Count == 0 {
			t.Fatalf("packet scenario measured nothing")
		}
		if a.Trans != nil && a.Trans.Throughput == 0 {
			t.Fatalf("soc scenario measured nothing")
		}
	}
}

// TestCheckedInScenarioFiles loads every scenario file shipped in the
// repository (examples/ and testdata/), the same set the CI docs job
// validates with cmd/nocscenario.
func TestCheckedInScenarioFiles(t *testing.T) {
	var files []string
	for _, glob := range []string{"../../testdata/*.scenario.json", "../../examples/*/*.scenario.json"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 3 {
		t.Fatalf("expected checked-in scenario files, found %v", files)
	}
	for _, f := range files {
		if _, err := LoadFile(f); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestCampaignScenarioLowers pins the campaign lowering path (the axes
// reach traffic.CampaignConfig, the base carries the workload).
func TestCampaignScenarioLowers(t *testing.T) {
	doc := strings.Replace(minimalPacket(), `"measure": {`,
		`"measure": { "campaign": {"topologies": ["crossbar", "ring"], "patterns": ["uniform"], "rates": [0.02, 0.05], "workers": 2},`, 1)
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != ModeCampaign {
		t.Fatalf("mode = %s, want campaign", s.Mode())
	}
	cc, err := s.CampaignConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Topologies) != 2 || len(cc.Patterns) != 1 || len(cc.Rates) != 2 || cc.Workers != 2 {
		t.Fatalf("campaign axes lost in lowering: %+v", cc)
	}
	res := traffic.Campaign(cc)
	if len(res.Points) != 4 {
		t.Fatalf("campaign ran %d points, want 4", len(res.Points))
	}
}

// TestCampaignBytesIgnoreWorkers is the cache-soundness check for
// campaigns: the fingerprint ignores the worker count, so the result
// bytes must too, or the server would serve one pool size's bytes for
// another's.
func TestCampaignBytesIgnoreWorkers(t *testing.T) {
	var out [][]byte
	for _, workers := range []int{1, 3} {
		s, err := Load(strings.NewReader(minimalPacket()))
		if err != nil {
			t.Fatal(err)
		}
		s.Measure.Campaign = &Campaign{Topologies: []string{"crossbar", "ring"}, Rates: []float64{0.02, 0.05}, Workers: workers}
		rep, err := Execute(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Campaign.Workers != workers {
			t.Fatalf("campaign ran on %d workers, want %d", rep.Campaign.Workers, workers)
		}
		var buf bytes.Buffer
		if err := stats.WriteJSON(&buf, rep.Result()); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatal("campaign result bytes depend on the worker count")
	}
}

// TestExecuteRejectsMisplacedSinks: a probe cannot observe concurrent
// campaign points, and per-point heatmaps exist only for campaigns;
// both requests fail instead of being dropped.
func TestExecuteRejectsMisplacedSinks(t *testing.T) {
	s, err := Load(strings.NewReader(minimalPacket()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(s, Options{Heatmaps: true}); err == nil || !strings.Contains(err.Error(), "campaign") {
		t.Fatalf("single run with Heatmaps: err = %v", err)
	}
	s.Measure.Campaign = &Campaign{Rates: []float64{0.02}}
	if _, err := Execute(s, Options{Probe: &obs.SpanRecorder{}}); err == nil || !strings.Contains(err.Error(), "probe") {
		t.Fatalf("campaign with a probe: err = %v", err)
	}
}

// busyProbe reads the progress tracker's busy-worker count at the first
// fabric event of each point; clearing read arms it for the next point.
type busyProbe struct {
	prog     *metrics.Progress
	readings []int
	read     bool
}

func (p *busyProbe) Event(obs.Event) {
	if !p.read {
		p.readings = append(p.readings, p.prog.Snapshot().WorkersBusy)
		p.read = true
	}
}

func (p *busyProbe) SamplesBuffers() bool { return false }

// TestSweepPointsShowBusyWorker: a sweep run through Execute with a
// metrics rig counts its one worker busy while each point runs, so a
// mid-sweep /progress reads workers_busy 1, and 0 once it is over.
func TestSweepPointsShowBusyWorker(t *testing.T) {
	s, ok := Get("hotspot-dram")
	if !ok {
		t.Fatal("built-in hotspot-dram missing")
	}
	s.Measure.Measure = 500
	rig := metrics.NewRig()
	probe := &busyProbe{prog: rig.Progress}
	if _, err := Execute(s, Options{Metrics: rig, Probe: probe,
		OnPoint: func(traffic.PointDone) { probe.read = false }}); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1, 1}; !reflect.DeepEqual(probe.readings, want) {
		t.Fatalf("workers busy inside each point = %v, want %v", probe.readings, want)
	}
	if ps := rig.Progress.Snapshot(); ps.WorkersBusy != 0 || ps.PointsDone != 5 {
		t.Fatalf("after the sweep: %+v", ps)
	}
}
