// Command noctraffic stresses the NoC with the standard synthetic
// workloads of the on-chip-network literature and reports latency and
// throughput, as text tables or JSON.
//
// Four modes:
//
//   - single run (default): one pattern at one injection rate on a raw
//     transport fabric, with a latency histogram and optional per-flow
//     digests (-flows);
//   - sweep (-sweep): walk injection rates and emit the
//     latency-vs-offered-load curve with its saturation summary;
//   - campaign (-campaign): fan a (topology × pattern × rate) product
//     across a worker pool — each point is an isolated simulation, so
//     the campaign scales with cores while per-point results stay
//     bit-identical to a serial run of the same seeds; with -heatmap,
//     every point records its own congestion heatmap;
//   - transaction level (-trans): drive the full mixed-protocol SoC
//     through its existing NIUs at a controlled per-master rate.
//
// Scenarios (internal/scenario, reference in docs/SCENARIOS.md): every
// invocation runs a scenario document through scenario.Execute, the
// executor nocserver also calls. Without -scenario the flags fill a
// fresh document: a packet workload, or a soc workload under -trans.
// -scenario starts from a built-in name (-list-scenarios) or a
// *.scenario.json file instead, and only the explicitly set flags
// override its fields. Either way, an explicitly set flag that does
// not apply to the workload kind is an error. -save-scenario writes the
// document that runs, so re-running the file reproduces the identical
// seeded result.
//
// Observability (internal/obs, reference in docs/OBSERVABILITY.md):
// -trace writes a Chrome trace_event file of the run's
// transaction/packet lifecycle spans — open it directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing; -events writes the same
// span stream as JSONL; -heatmap writes the per-link congestion heatmap
// JSON (per-link flits, stall cycles, VC-occupancy high-water marks, and
// a time-bucketed utilization series); -heatmap-csv writes the same data
// as long-format CSV for spreadsheets and dataframes. -trace/-events
// need a single simulation (single run or -trans); -heatmap/-heatmap-csv
// also work in -campaign mode, where every point gets its own heatmap.
//
// Live metrics (internal/obs/metrics): -metrics-addr serves /metrics
// (Prometheus text exposition: per-router flit and stall counters,
// sim-cycles/sec, heap usage, campaign progress) and /progress (a JSON
// progress document with an ETA) over HTTP while the run executes;
// -metrics-out appends periodic self-profiling snapshots as JSONL at the
// -metrics-interval cadence. Both observe through atomic counters off
// the simulation's critical path: enabling them never changes seeded
// results. Every completed point also prints a progress line to stderr.
//
// Profiling (reference in docs/PERFORMANCE.md): -cpuprofile writes a
// pprof CPU profile covering the whole run; -memprofile writes a pprof
// allocation profile at exit (after a final GC, so it shows live and
// cumulative allocations, not garbage). Inspect either with
// `go tool pprof`.
//
// Usage:
//
//	noctraffic [-pattern uniform|hotspot|transpose|bitcomp|neighbor|bursty]
//	           [-topology crossbar|mesh|torus|ring|tree] [-nodes N]
//	           [-mode wormhole|saf] [-fidelity cycle|hybrid] [-qos]
//	           [-rate R] [-sweep] [-rates R1,R2,...] [-closed] [-window N]
//	           [-payload B] [-readfrac F] [-hotfrac F] [-burstlen N]
//	           [-urgentfrac F] [-warmup N] [-measure N] [-drain N]
//	           [-seed N] [-flows] [-json] [-wall=false] [-campaign]
//	           [-topologies T1,T2,...] [-patterns P1,P2,...] [-workers N]
//	           [-trans] [-hotspot-mem] [-wb] [-trace FILE] [-events FILE]
//	           [-heatmap FILE] [-heatmap-bucket N] [-heatmap-csv FILE]
//	           [-metrics-addr ADDR] [-metrics-out FILE]
//	           [-metrics-interval D] [-scenario NAME|FILE]
//	           [-save-scenario FILE] [-list-scenarios]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/obs/prof"
	"gonoc/internal/scenario"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is one parsed command line.
type cli struct {
	// Scenario fields (scenario.go in internal/scenario).
	pattern, topo, mode, fidelity       string
	nodes, window, payload              int
	hotNode, burstLen, workers          int
	rate, readFrac, hotFrac, urgentFrac float64
	warmup, measure, drain              int64
	seed, heatBucket                    int64
	rates, topologies, patterns         string
	qos, sweep, closed, campaign, trans bool
	hotspotMem, wb                      bool

	// Output, observability and document handling.
	flows, jsonOut, wall, listScenarios bool
	trace, events, heatmap, heatCSV     string
	metricsAddr, metricsOut             string
	metricsEvery                        time.Duration
	scenarioArg, saveScenario           string
	cpuProfile, memProfile              string

	set    map[string]bool // flags given explicitly
	fresh  bool            // no -scenario: every flag fills the document
	stdout io.Writer
	stderr io.Writer
}

// run is main with its process edges injected, so the tests can drive
// the full argument-to-exit-code path in process.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr, set: map[string]bool{}}
	fs := flag.NewFlagSet("noctraffic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.pattern, "pattern", "uniform", "traffic pattern: uniform, hotspot, transpose, bitcomp, neighbor, bursty")
	fs.StringVar(&c.topo, "topology", "crossbar", "fabric: crossbar, mesh, torus, ring, or tree")
	fs.IntVar(&c.nodes, "nodes", 16, "endpoint count")
	fs.StringVar(&c.mode, "mode", "wormhole", "switching: wormhole or saf")
	fs.StringVar(&c.fidelity, "fidelity", "cycle", "execution fidelity: cycle (exact) or hybrid (analytic until links heat up) (docs/PERFORMANCE.md)")
	fs.BoolVar(&c.qos, "qos", false, "priority arbitration in switches")
	fs.Float64Var(&c.rate, "rate", 0.05, "offered load: transactions/node/cycle (open loop), or issue probability per master per cycle with -trans")
	fs.BoolVar(&c.sweep, "sweep", false, "walk injection rates; emit the latency-vs-offered-load curve")
	fs.StringVar(&c.rates, "rates", "", "comma-separated sweep or campaign rates (default: built-in schedule)")
	fs.BoolVar(&c.closed, "closed", false, "closed-loop injection (fixed outstanding window)")
	fs.IntVar(&c.window, "window", 4, "outstanding transactions per source (closed loop) or per master (-trans)")
	fs.IntVar(&c.payload, "payload", 32, "data bytes per transaction")
	fs.Float64Var(&c.readFrac, "readfrac", 0.5, "fraction of transactions that are reads")
	fs.Float64Var(&c.hotFrac, "hotfrac", 0.5, "hotspot: fraction of traffic to the hot node")
	fs.IntVar(&c.hotNode, "hotnode", 0, "hotspot: destination node index")
	fs.IntVar(&c.burstLen, "burstlen", 8, "bursty: mean burst length")
	fs.Float64Var(&c.urgentFrac, "urgentfrac", 0, "fraction of transactions injected at urgent priority")
	fs.Int64Var(&c.warmup, "warmup", 1000, "warmup cycles (inject, don't record)")
	fs.Int64Var(&c.measure, "measure", 4000, "measurement cycles")
	fs.Int64Var(&c.drain, "drain", 30000, "drain-cycle cap for finishing measured transactions")
	fs.Int64Var(&c.seed, "seed", 1, "root random seed")
	fs.BoolVar(&c.flows, "flows", false, "print per-flow latency digests (single run)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit JSON instead of text tables")
	fs.BoolVar(&c.wall, "wall", true, "include the wall-clock self-profile in the report; -wall=false makes -json output fully deterministic (byte-comparable to a nocserver cached result)")
	fs.BoolVar(&c.campaign, "campaign", false, "fan a (topology x pattern x rate) product across a worker pool; with -heatmap, one congestion heatmap per point")
	fs.StringVar(&c.topologies, "topologies", "crossbar,mesh,torus,ring,tree", "campaign: comma-separated topologies")
	fs.StringVar(&c.patterns, "patterns", "uniform,hotspot", "campaign: comma-separated patterns")
	fs.IntVar(&c.workers, "workers", 0, "campaign: worker-pool size (default: GOMAXPROCS)")
	fs.BoolVar(&c.trans, "trans", false, "transaction-level load through the SoC's NIUs")
	fs.BoolVar(&c.hotspotMem, "hotspot-mem", false, "trans: all masters hammer one memory")
	fs.BoolVar(&c.wb, "wb", false, "trans: include the WISHBONE master (and its memory) in the driven SoC")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace_event file (Perfetto/chrome://tracing); single run or -trans")
	fs.StringVar(&c.events, "events", "", "write the lifecycle span trace as JSONL; single run or -trans")
	fs.StringVar(&c.heatmap, "heatmap", "", "write the per-link congestion heatmap JSON; single run, -trans, or -campaign (one heatmap per point)")
	fs.Int64Var(&c.heatBucket, "heatmap-bucket", 0, fmt.Sprintf("heatmap time-bucket width in cycles (0 = %d)", obs.DefaultHeatmapBucket))
	fs.StringVar(&c.heatCSV, "heatmap-csv", "", "write the congestion heatmap as long-format CSV (one row per link per time bucket); same modes as -heatmap")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live metrics over HTTP while the run executes: /metrics (Prometheus text) and /progress (JSON) on this address (e.g. :9091)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "append periodic self-profiling snapshots as JSONL to this file (headless alternative to -metrics-addr)")
	fs.DurationVar(&c.metricsEvery, "metrics-interval", 250*time.Millisecond, "snapshot cadence for -metrics-out")
	fs.StringVar(&c.scenarioArg, "scenario", "", "run a declarative scenario: a built-in name (-list-scenarios) or a *.scenario.json file; explicit flags override scenario fields (docs/SCENARIOS.md)")
	fs.StringVar(&c.saveScenario, "save-scenario", "", "write the scenario document this invocation runs to a file before running it; re-running the file reproduces the identical seeded result")
	fs.BoolVar(&c.listScenarios, "list-scenarios", false, "list the built-in scenarios and exit")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file (docs/PERFORMANCE.md)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof allocation profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	c.fresh = c.scenarioArg == ""
	if err := c.main(); err != nil {
		fmt.Fprintln(stderr, "noctraffic:", err)
		return 1
	}
	return 0
}

// main resolves the scenario document, runs it through scenario.Execute
// and prints the result.
func (c *cli) main() error {
	stopProf, err := prof.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	if c.listScenarios {
		printScenarioList(c.stdout)
		return nil
	}
	sc, err := c.scenario()
	if err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	mode := sc.Mode()
	if err := c.checkOutputs(mode); err != nil {
		return err
	}
	if c.saveScenario != "" {
		if err := sc.SaveFile(c.saveScenario); err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "saved scenario %q -> %s (re-run: noctraffic -scenario %s)\n",
			sc.Name, c.saveScenario, c.saveScenario)
	}
	live, err := metrics.StartLive(c.metricsAddr, c.metricsOut, c.metricsEvery, c.stderr)
	if err != nil {
		return err
	}
	defer func() {
		if err := live.Close(); err != nil {
			fmt.Fprintf(c.stderr, "noctraffic: metrics: %v\n", err)
		}
	}()

	// Sinks for one simulation; a campaign records per-point heatmaps
	// itself (Options.Heatmaps).
	heat := c.heatmap != "" || c.heatCSV != ""
	var rec *obs.SpanRecorder
	var mon *obs.LinkMonitor
	var probes []obs.Probe
	if c.trace != "" || c.events != "" {
		rec = &obs.SpanRecorder{}
		probes = append(probes, rec)
	}
	if heat && mode != scenario.ModeCampaign {
		mon = obs.NewLinkMonitor(sc.Measure.HeatmapBucket)
		probes = append(probes, mon)
	}
	start := time.Now()
	var label string
	rep, err := scenario.Execute(sc, scenario.Options{
		Metrics:  live.Rig,
		Probe:    obs.Multi(probes...),
		Wall:     c.wall,
		Heatmaps: heat && mode == scenario.ModeCampaign,
		OnPoint: func(pd traffic.PointDone) {
			label = pd.Label
			progressLine(c.stderr, mode, pd, start)
		},
	})
	if err != nil {
		return err
	}
	if err := c.writeSinks(rep, rec, mon, label); err != nil {
		return err
	}
	if c.jsonOut {
		return stats.WriteJSON(c.stdout, rep.Result())
	}
	printReport(c.stdout, rep, c.flows)
	return nil
}

// Flags that describe one workload kind: an explicit one on a
// document of the other kind is an error.
var (
	packetFlags = []string{"nodes", "pattern", "hotfrac", "hotnode", "burstlen", "urgentfrac", "closed",
		"sweep", "rates", "campaign", "topologies", "patterns", "workers"}
	socFlags = []string{"wb", "hotspot-mem"}
)

// given reports whether a flag writes its field: every flag fills a
// fresh document, only explicit ones override a resolved one.
func (c *cli) given(name string) bool { return c.fresh || c.set[name] }

// scenario maps the command line onto the document that runs.
func (c *cli) scenario() (*scenario.Scenario, error) {
	var sc *scenario.Scenario
	if c.fresh {
		sc = &scenario.Scenario{Version: scenario.Version, Name: c.exportName(),
			Workload: scenario.Workload{Kind: scenario.KindPacket}}
		if c.trans {
			sc.Workload.Kind = scenario.KindSoC
			for _, p := range soc.Masters(c.wb) {
				sc.Workload.Masters = append(sc.Workload.Masters, scenario.MasterRole{Protocol: p})
			}
		}
	} else {
		var err error
		if sc, err = scenario.Resolve(c.scenarioArg); err != nil {
			return nil, err
		}
		if c.trans && sc.Workload.Kind != scenario.KindSoC {
			return nil, fmt.Errorf("-trans needs a soc scenario; %q is a %s workload", sc.Name, sc.Workload.Kind)
		}
	}
	packet := sc.Workload.Kind == scenario.KindPacket
	misplaced := packetFlags
	if packet {
		misplaced = socFlags
	}
	for _, name := range misplaced {
		if c.set[name] {
			return nil, fmt.Errorf("-%s does not apply to a %s workload", name, sc.Workload.Kind)
		}
	}

	f, w, m := &sc.Fabric, &sc.Workload, &sc.Measure
	fields := []field{
		{"seed", func() { sc.Seed = c.seed }},
		{"topology", func() { f.Topology = c.topo }},
		{"mode", func() {
			if f.Mode = c.mode; c.mode == "wormhole" {
				f.Mode = "" // the implicit default
			}
		}},
		{"qos", func() { f.QoS = c.qos }},
		{"fidelity", func() {
			f.Fidelity = c.fidelity
			if fid, err := transport.ParseFidelity(c.fidelity); err == nil && fid == transport.FidelityCycle {
				f.Fidelity = "" // the implicit default
			}
		}},
		{"warmup", func() { v := c.warmup; m.Warmup = &v }},
		{"measure", func() { m.Measure = c.measure }},
		{"drain", func() { m.Drain = c.drain }},
		{"heatmap-bucket", func() { m.HeatmapBucket = c.heatBucket }},
	}
	if packet {
		fields = append(fields,
			field{"nodes", func() { f.Nodes = c.nodes }},
			field{"pattern", func() { w.Pattern = c.pattern }},
			field{"rate", func() { w.Rate = c.rate }},
			field{"payload", func() { w.PayloadBytes = c.payload }},
			field{"readfrac", func() { v := c.readFrac; w.ReadFrac = &v }},
			field{"hotfrac", func() { w.HotFrac = c.hotFrac }},
			field{"hotnode", func() { w.HotNode = c.hotNode }},
			field{"burstlen", func() { w.BurstLen = c.burstLen }},
			field{"urgentfrac", func() { w.UrgentFrac = c.urgentFrac }},
			field{"closed", func() { w.ClosedLoop = c.closed }},
			field{"window", func() { w.Window = c.window }})
	} else {
		// The run-wide knobs set every master's role.
		for i := range w.Masters {
			r := &w.Masters[i]
			fields = append(fields,
				field{"rate", func() { r.Rate = c.rate }},
				field{"window", func() { r.Window = c.window }},
				field{"payload", func() { r.Bytes = c.payload }},
				field{"readfrac", func() { v := c.readFrac; r.ReadFrac = &v }})
		}
		fields = append(fields,
			field{"wb", func() { w.Wishbone = c.wb }},
			field{"hotspot-mem", func() { w.Hotspot = c.hotspotMem }})
	}
	for _, fl := range fields {
		if c.given(fl.flag) {
			fl.set()
		}
	}
	if !packet {
		return sc, nil
	}
	return sc, c.measureMode(m)
}

// field writes one flag's value into the document.
type field struct {
	flag string
	set  func()
}

// measureMode applies the mode flags to a packet document: -campaign
// and -sweep convert it, -rates lands in whichever section it has, and
// the campaign axes need a campaign.
func (c *cli) measureMode(m *scenario.Measure) error {
	if c.sweep && c.campaign {
		return fmt.Errorf("-sweep and -campaign are mutually exclusive")
	}
	if c.campaign && m.Campaign == nil {
		m.SweepRates, m.Campaign = nil, &scenario.Campaign{}
	}
	if c.sweep {
		m.Campaign = nil
	}
	var rates []float64
	for _, f := range list(c.rates) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("-rates: bad rate %q", f)
		}
		rates = append(rates, v)
	}
	if camp := m.Campaign; camp != nil {
		if c.given("topologies") {
			camp.Topologies = list(c.topologies)
		}
		if c.given("patterns") {
			camp.Patterns = list(c.patterns)
		}
		if c.given("workers") {
			camp.Workers = c.workers
		}
		if c.given("rates") {
			camp.Rates = rates
		}
	} else {
		for _, name := range []string{"topologies", "patterns", "workers"} {
			if c.set[name] {
				return fmt.Errorf("-%s needs a campaign (add -campaign)", name)
			}
		}
		if c.given("rates") {
			m.SweepRates = rates
		}
	}
	if c.sweep && len(m.SweepRates) == 0 {
		m.SweepRates = traffic.DefaultRates()
	}
	return nil
}

// list splits a comma-separated flag value, dropping blanks.
func list(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// exportName names a fresh document after its -save-scenario file
// ("runs/hot.scenario.json" names it "hot").
func (c *cli) exportName() string {
	name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(c.saveScenario), ".json"), ".scenario")
	if name == "" || name == "." {
		return "noctraffic-export"
	}
	return name
}

// checkOutputs rejects output flags the run's mode cannot honour.
func (c *cli) checkOutputs(mode scenario.Mode) error {
	oneSim := mode == scenario.ModeSingle || mode == scenario.ModeTrans
	for _, o := range []struct {
		flag   string
		on, ok bool
	}{
		{"trace", c.trace != "", oneSim},
		{"events", c.events != "", oneSim},
		{"heatmap", c.heatmap != "", mode != scenario.ModeSweep},
		{"heatmap-csv", c.heatCSV != "", mode != scenario.ModeSweep},
		{"flows", c.flows, mode == scenario.ModeSingle},
	} {
		if o.on && !o.ok {
			return fmt.Errorf("-%s does not apply to a %s run", o.flag, mode)
		}
	}
	return nil
}

// writeSinks writes the requested trace and heatmap files; label names
// a single simulation's heatmap.
func (c *cli) writeSinks(rep *scenario.Report, rec *obs.SpanRecorder, mon *obs.LinkMonitor, label string) error {
	var heatJSON, heatCSV func(io.Writer) error
	if rep.Campaign != nil {
		hm := rep.Campaign.Heatmaps
		heatJSON = func(w io.Writer) error { return stats.WriteJSON(w, hm) }
		heatCSV = func(w io.Writer) error { return obs.WriteHeatmapsCSV(w, hm) }
	} else if mon != nil {
		hr := mon.Report(label)
		heatJSON, heatCSV = hr.WriteJSON, hr.WriteCSV
	}
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{c.trace, rec.WriteChromeTrace},
		{c.events, rec.WriteJSONL},
		{c.heatmap, heatJSON},
		{c.heatCSV, heatCSV},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progressLine prints one per-point completion line to stderr — the
// live pulse of a long sweep or campaign (stdout stays reserved for
// the report). ETA extrapolates from the average completed-point pace.
func progressLine(w io.Writer, mode scenario.Mode, pd traffic.PointDone, start time.Time) {
	elapsed := time.Since(start)
	eta := ""
	if pd.Done > 0 && pd.Done < pd.Total {
		remain := time.Duration(float64(elapsed) / float64(pd.Done) * float64(pd.Total-pd.Done))
		eta = fmt.Sprintf(", ~%s left", remain.Round(time.Second))
	}
	fmt.Fprintf(w, "%s point %d/%d done: %s (offered %g, %.0f ms) — %s elapsed%s\n",
		mode, pd.Done, pd.Total, pd.Label, pd.Offered, pd.WallMS, elapsed.Round(time.Millisecond), eta)
}

func printScenarioList(w io.Writer) {
	t := stats.NewTable("built-in scenarios (-scenario NAME; docs/SCENARIOS.md)",
		"name", "kind", "mode", "description")
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		t.AddRow(name, sc.Workload.Kind, string(sc.Mode()), sc.Description)
	}
	fmt.Fprintln(w, t.Render())
}

// printReport renders the mode result as text tables.
func printReport(w io.Writer, rep *scenario.Report, flows bool) {
	switch rep.Mode {
	case scenario.ModeTrans:
		tr := rep.Trans
		fmt.Fprintln(w, tr.Table().Render())
		fmt.Fprintf(w, "throughput: %.1f completions/kcycle; incomplete: %d\n", tr.Throughput, tr.Incomplete)
	case scenario.ModeCampaign:
		cr := rep.Campaign
		fmt.Fprintln(w, cr.Table().Render())
		for _, cv := range cr.Curves {
			fmt.Fprintln(w, cv.Table().Render())
		}
		if cr.Wall != nil {
			fmt.Fprintf(w, "wall clock: %.0f ms for %d kernel events (%.2g events/sec)\n",
				cr.Wall.TotalMS, cr.Wall.Events, cr.Wall.EventsPerSec)
		}
	case scenario.ModeSweep:
		sr := rep.Sweep
		fmt.Fprintln(w, sr.Table().Render())
		fmt.Fprintf(w, "saturation: last unsaturated rate %.3f, saturation throughput %.4f txn/node/cycle\n",
			sr.SatRate, sr.SatThroughput)
	default:
		printRun(w, rep.Single, flows)
	}
}

func printRun(w io.Writer, res *traffic.Result, showFlows bool) {
	loop := fmt.Sprintf("open loop @ %.3f txn/node/cyc", res.Offered)
	if res.ClosedLoop {
		loop = "closed loop"
	}
	fmt.Fprintf(w, "%s on %s, %d nodes, %s: %d cycles simulated\n\n",
		res.Pattern, res.Topology, res.Nodes, loop, res.Cycles)

	t := stats.NewTable("run summary", "metric", "value")
	t.AddRow("generated rate (txn/node/cyc)", res.GenRate)
	t.AddRow("accepted rate", res.InjRate)
	t.AddRow("throughput", res.Throughput)
	t.AddRow("mean latency (cyc)", res.Latency.Mean)
	t.AddRow("p50 / p95 / p99", fmt.Sprintf("%d / %d / %d", res.Latency.P50, res.Latency.P95, res.Latency.P99))
	t.AddRow("max latency", res.Latency.Max)
	t.AddRow("fabric latency mean (per pkt)", res.NetLatency.Mean)
	t.AddRow("avg hops", res.AvgHops)
	t.AddRow("measured txns", res.Latency.Count)
	t.AddRow("incomplete at drain cap", res.Incomplete)
	t.AddRow("saturated", stats.Mark(res.Saturated))
	fmt.Fprintln(w, t.Render())

	h := stats.NewTable("latency histogram (cycles)", "range", "count")
	for _, b := range res.Hist {
		h.AddRow(fmt.Sprintf("[%d,%d]", b.Lo, b.Hi), b.Count)
	}
	fmt.Fprintln(w, h.Render())

	if showFlows {
		fmt.Fprintln(w, traffic.FlowTable(*res).Render())
	}
}
