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
// Scenarios (internal/scenario, reference in docs/SCENARIOS.md):
// -scenario runs a declarative composition instead of flags — a
// built-in name (-list-scenarios) or a *.scenario.json file; the
// scenario selects the mode, and any explicitly set flag overrides the
// corresponding scenario field. -save-scenario exports the current
// invocation (flags or scenario+overrides) as a scenario file that
// reproduces the identical seeded result when re-run.
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
// sim-events/sec, heap usage, campaign progress) and /progress (a JSON
// progress document with an ETA) over HTTP while the run executes;
// -metrics-out appends periodic self-profiling snapshots as JSONL at the
// -metrics-interval cadence. Both observe through atomic counters off
// the simulation's critical path: enabling them never changes seeded
// results, and long sweeps and campaigns additionally print per-point
// completion lines to stderr whether or not metrics are on.
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
//	           [-mode wormhole|saf] [-qos] [-rate R] [-sweep]
//	           [-rates R1,R2,...] [-closed] [-window N] [-payload B]
//	           [-readfrac F] [-hotfrac F] [-burstlen N] [-urgentfrac F]
//	           [-warmup N] [-measure N] [-drain N] [-seed N] [-flows]
//	           [-json] [-wall=false] [-campaign] [-topologies T1,T2,...]
//	           [-patterns P1,P2,...] [-workers N] [-trans] [-hotspot-mem]
//	           [-wb] [-trace FILE] [-events FILE] [-heatmap FILE]
//	           [-heatmap-bucket N] [-heatmap-csv FILE]
//	           [-metrics-addr ADDR] [-metrics-out FILE]
//	           [-metrics-interval D] [-scenario NAME|FILE]
//	           [-save-scenario FILE] [-list-scenarios]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
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

var (
	pattern    = flag.String("pattern", "uniform", "traffic pattern: uniform, hotspot, transpose, bitcomp, neighbor, bursty")
	topo       = flag.String("topology", "crossbar", "fabric: crossbar, mesh, torus, ring, or tree")
	nodes      = flag.Int("nodes", 16, "endpoint count")
	mode       = flag.String("mode", "wormhole", "switching: wormhole or saf")
	fidelity   = flag.String("fidelity", "cycle", "execution fidelity: cycle (exact), hybrid (analytic until links heat up), or loose (always analytic) (docs/PERFORMANCE.md)")
	looseThr   = flag.Float64("loose-threshold", 0, "hybrid/loose: link-utilization fraction above which a region falls back to cycle-accurate (0 = default 0.35)")
	looseHyst  = flag.Float64("loose-hysteresis", 0, "hybrid/loose: a hot region cools below threshold*hysteresis (0 = default 0.5)")
	looseWin   = flag.Int64("loose-window", 0, "hybrid/loose: cycles per link-utilization epoch (0 = default 256)")
	qos        = flag.Bool("qos", false, "priority arbitration in switches")
	rate       = flag.Float64("rate", 0.05, "offered load, transactions/node/cycle (open loop)")
	sweep      = flag.Bool("sweep", false, "walk injection rates; emit the latency-vs-offered-load curve")
	ratesFlag  = flag.String("rates", "", "comma-separated sweep rates (default: built-in schedule)")
	closed     = flag.Bool("closed", false, "closed-loop injection (fixed outstanding window)")
	window     = flag.Int("window", 4, "closed loop: outstanding transactions per source")
	payload    = flag.Int("payload", 32, "data bytes per transaction")
	readFrac   = flag.Float64("readfrac", 0.5, "fraction of transactions that are reads")
	hotFrac    = flag.Float64("hotfrac", 0.5, "hotspot: fraction of traffic to the hot node")
	hotNode    = flag.Int("hotnode", 0, "hotspot: destination node index")
	burstLen   = flag.Int("burstlen", 8, "bursty: mean burst length")
	urgentFrac = flag.Float64("urgentfrac", 0, "fraction of transactions injected at urgent priority")
	warmup     = flag.Int64("warmup", 1000, "warmup cycles (inject, don't record)")
	measure    = flag.Int64("measure", 4000, "measurement cycles")
	drain      = flag.Int64("drain", 30000, "drain-cycle cap for finishing measured transactions")
	seed       = flag.Int64("seed", 1, "root random seed")
	flows      = flag.Bool("flows", false, "print per-flow latency digests (single run)")
	jsonOut    = flag.Bool("json", false, "emit JSON instead of text tables")
	wallOut    = flag.Bool("wall", true, "include the wall-clock self-profile in the report; -wall=false makes -json output fully deterministic (byte-comparable to a nocserver cached result)")
	campaign   = flag.Bool("campaign", false, "fan a (topology x pattern x rate) product across a worker pool; with -heatmap, one congestion heatmap per point")
	topoList   = flag.String("topologies", "crossbar,mesh,torus,ring,tree", "campaign: comma-separated topologies")
	patList    = flag.String("patterns", "uniform,hotspot", "campaign: comma-separated patterns")
	workers    = flag.Int("workers", 0, "campaign: worker-pool size (default: GOMAXPROCS)")
	trans      = flag.Bool("trans", false, "transaction-level load through the SoC's NIUs")
	hotspotMem = flag.Bool("hotspot-mem", false, "trans: all masters hammer one memory")
	wb         = flag.Bool("wb", false, "trans: include the WISHBONE master (and its memory) in the driven SoC")
	traceFile  = flag.String("trace", "", "write a Chrome trace_event file (Perfetto/chrome://tracing); single run or -trans")
	eventsFile = flag.String("events", "", "write the lifecycle span trace as JSONL; single run or -trans")
	heatFile   = flag.String("heatmap", "", "write the per-link congestion heatmap JSON; single run, -trans, or -campaign (one heatmap per point)")
	heatBucket = flag.Int64("heatmap-bucket", obs.DefaultHeatmapBucket, "heatmap time-bucket width in cycles")
	heatCSV    = flag.String("heatmap-csv", "", "write the congestion heatmap as long-format CSV (one row per link per time bucket); same modes as -heatmap")

	metricsAddr  = flag.String("metrics-addr", "", "serve live metrics over HTTP while the run executes: /metrics (Prometheus text) and /progress (JSON) on this address (e.g. :9091)")
	metricsOut   = flag.String("metrics-out", "", "append periodic self-profiling snapshots as JSONL to this file (headless alternative to -metrics-addr)")
	metricsEvery = flag.Duration("metrics-interval", 250*time.Millisecond, "snapshot cadence for -metrics-out")

	scenarioFlag  = flag.String("scenario", "", "run a declarative scenario: a built-in name (-list-scenarios) or a *.scenario.json file; explicit flags override scenario fields (docs/SCENARIOS.md)")
	saveScenario  = flag.String("save-scenario", "", "export this invocation as a scenario file before running it; re-running the file reproduces the identical seeded result")
	listScenarios = flag.Bool("list-scenarios", false, "list the built-in scenarios and exit")

	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (docs/PERFORMANCE.md)")
	memProfile = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
)

// setFlags records which flags the user set explicitly — the set that
// overrides scenario fields.
var setFlags = map[string]bool{}

// mx is the process-wide live-metrics rig; nil unless -metrics-addr or
// -metrics-out was given. Every method is nil-safe.
var mx *metricsRun

func main() {
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if *heatBucket <= 0 {
		*heatBucket = obs.DefaultHeatmapBucket
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	if *listScenarios {
		printScenarioList()
		return
	}
	mx = newMetricsRun()
	defer mx.close()
	if *scenarioFlag != "" {
		runScenario()
		return
	}

	top, err := traffic.ParseTopology(*topo)
	if err != nil {
		log.Fatal(err)
	}
	sk := newSinks(*traceFile, *eventsFile, *heatFile, *heatCSV, *heatBucket)

	fid, err := transport.ParseFidelity(*fidelity)
	if err != nil {
		log.Fatal(err)
	}
	if fid == transport.FidelityCycle && (*looseThr != 0 || *looseHyst != 0 || *looseWin != 0) {
		log.Fatal("-loose-threshold/-loose-hysteresis/-loose-window need -fidelity hybrid or loose")
	}

	if *trans {
		tc := traffic.TransConfig{
			Seed: *seed, Topology: socTopology(top), Rate: *rate, Window: *window,
			Bytes: *payload, ReadFrac: zeroAsNeg(*readFrac),
			Hotspot: *hotspotMem, Wishbone: *wb,
			Warmup: zeroAsNegI(*warmup), Measure: *measure, Drain: *drain,
		}
		tc.Net.Fidelity = fid
		tc.Net.LooseThreshold = *looseThr
		tc.Net.LooseHysteresis = *looseHyst
		tc.Net.LooseWindow = *looseWin
		if *saveScenario != "" {
			exportScenario(scenario.FromTransConfig(scenarioName(), tc))
		}
		runTrans(tc, *jsonOut, sk)
		return
	}

	if *nodes < 2 {
		log.Fatalf("need at least 2 nodes, got %d", *nodes)
	}
	pat, err := traffic.ParsePattern(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	if pat == traffic.Hotspot && (*hotNode < 0 || *hotNode >= *nodes) {
		log.Fatalf("hot node %d outside [0,%d)", *hotNode, *nodes)
	}
	cfg := traffic.Config{
		Seed: *seed, Nodes: *nodes, Topology: top,
		Pattern: pat, Rate: *rate, PayloadBytes: *payload,
		ReadFrac: zeroAsNeg(*readFrac), HotFrac: *hotFrac, HotNode: *hotNode,
		BurstLen: *burstLen, UrgentFrac: *urgentFrac,
		ClosedLoop: *closed, Window: *window,
		Warmup: zeroAsNegI(*warmup), Measure: *measure, Drain: *drain,
	}
	cfg.Net.QoS = *qos
	cfg.Net.Fidelity = fid
	cfg.Net.LooseThreshold = *looseThr
	cfg.Net.LooseHysteresis = *looseHyst
	cfg.Net.LooseWindow = *looseWin
	switch *mode {
	case "wormhole":
		cfg.Net.Mode = transport.Wormhole
	case "saf":
		cfg.Net.Mode = transport.StoreAndForward
	default:
		log.Fatalf("unknown switching mode %q", *mode)
	}

	if *campaign {
		ccfg := traffic.CampaignConfig{
			Base:       cfg,
			Topologies: parseTopologies(*topoList),
			Patterns:   parsePatterns(*patList),
			Rates:      parseRates(*ratesFlag),
			Workers:    *workers,
		}
		if *saveScenario != "" {
			exportScenario(scenario.FromPacketConfig(scenarioName(), cfg, nil, &ccfg))
		}
		runCampaign(ccfg, *heatBucket)
		return
	}

	if *sweep {
		rates := parseRates(*ratesFlag)
		if *saveScenario != "" {
			exported := rates
			if len(exported) == 0 {
				exported = traffic.DefaultRates()
			}
			exportScenario(scenario.FromPacketConfig(scenarioName(), cfg, exported, nil))
		}
		runSweep(cfg, rates)
		return
	}

	if *saveScenario != "" {
		exportScenario(scenario.FromPacketConfig(scenarioName(), cfg, nil, nil))
	}
	runSingle(cfg, sk)
}

// ---- the four run modes, shared by the flag and scenario paths ----

func runSingle(cfg traffic.Config, sk *sinks) {
	cfg.Probe = obs.Multi(sk.probe(), mx.fabricProbe())
	mx.attach(&cfg)
	cfg.CollectWall = *wallOut
	mx.setTotal(1)
	mx.pointStart()
	label := fmt.Sprintf("%s/%s@%g", cfg.Topology, cfg.Pattern, cfg.Rate)
	start := time.Now()
	res := traffic.Run(cfg)
	mx.pointDone(label, start)
	// Same "<topology>/<pattern>@<rate>" label shape campaign heatmaps use.
	sk.write(fmt.Sprintf("%s/%s@%g", res.Topology, res.Pattern, cfg.Rate))
	if *jsonOut {
		emitJSON(res)
		return
	}
	printRun(res, *flows)
}

func runSweep(cfg traffic.Config, rates []float64) {
	if *traceFile != "" || *eventsFile != "" || *heatFile != "" || *heatCSV != "" {
		log.Fatal("-trace/-events/-heatmap apply to a single run, -trans, or -campaign (-heatmap only)")
	}
	mx.attach(&cfg)
	// Sweep points run serially, so sharing one fabric collector across
	// them is safe (unlike campaign workers); counters accumulate over
	// the whole curve.
	cfg.Probe = mx.fabricProbe()
	cfg.CollectWall = *wallOut
	if len(rates) == 0 {
		mx.setTotal(len(traffic.DefaultRates()))
	} else {
		mx.setTotal(len(rates))
	}
	start := time.Now()
	sr := traffic.SweepProgress(cfg, rates, func(pd traffic.PointDone) {
		mx.pointFinished(pd.Label, pd.WallMS)
		progressLine("sweep", pd, start)
	})
	if *jsonOut {
		emitJSON(sr)
		return
	}
	fmt.Println(sr.Table().Render())
	fmt.Printf("saturation: last unsaturated rate %.3f, saturation throughput %.4f txn/node/cycle\n",
		sr.SatRate, sr.SatThroughput)
}

func runCampaign(ccfg traffic.CampaignConfig, bucket int64) {
	if *traceFile != "" || *eventsFile != "" {
		log.Fatal("-trace/-events need a single simulation; campaigns support -heatmap only")
	}
	if *heatFile != "" || *heatCSV != "" {
		ccfg.HeatmapBuckets = bucket
	}
	mx.attach(&ccfg.Base)
	ccfg.Base.CollectWall = *wallOut
	if mx != nil {
		ccfg.Progress = mx.prog
	}
	start := time.Now()
	ccfg.OnPoint = func(pd traffic.PointDone) { progressLine("campaign", pd, start) }
	cr := traffic.Campaign(ccfg)
	if *heatFile != "" {
		writeFile(*heatFile, func(w io.Writer) error { return stats.WriteJSON(w, cr.Heatmaps) })
	}
	if *heatCSV != "" {
		writeFile(*heatCSV, func(w io.Writer) error { return obs.WriteHeatmapsCSV(w, cr.Heatmaps) })
	}
	if *jsonOut {
		emitJSON(cr)
		return
	}
	fmt.Println(cr.Table().Render())
	for _, c := range cr.Curves {
		fmt.Println(c.Table().Render())
	}
	if cr.Wall != nil {
		fmt.Printf("wall clock: %.0f ms for %d kernel events (%.2g events/sec)\n",
			cr.Wall.TotalMS, cr.Wall.Events, cr.Wall.EventsPerSec)
	}
}

func runTrans(tc traffic.TransConfig, jsonOut bool, sk *sinks) {
	tc.Probe = obs.Multi(sk.probe(), mx.fabricProbe())
	if mx != nil {
		tc.Prof = mx.prof
	}
	tc.CollectWall = *wallOut
	mx.setTotal(1)
	mx.pointStart()
	start := time.Now()
	tr := traffic.RunTrans(tc)
	mx.pointDone(fmt.Sprintf("trans@%g", tc.Rate), start)
	sk.write(fmt.Sprintf("trans@%g", tc.Rate))
	if jsonOut {
		emitJSON(tr)
		return
	}
	fmt.Println(tr.Table().Render())
	fmt.Printf("throughput: %.1f completions/kcycle; incomplete: %d\n", tr.Throughput, tr.Incomplete)
}

// progressLine prints one per-point completion line to stderr — the
// live pulse of a long sweep or campaign (stdout stays reserved for
// the report). ETA extrapolates from the average completed-point pace.
func progressLine(mode string, pd traffic.PointDone, start time.Time) {
	elapsed := time.Since(start)
	eta := ""
	if pd.Done > 0 && pd.Done < pd.Total {
		remain := time.Duration(float64(elapsed) / float64(pd.Done) * float64(pd.Total-pd.Done))
		eta = fmt.Sprintf(", ~%s left", remain.Round(time.Second))
	}
	fmt.Fprintf(os.Stderr, "%s point %d/%d done: %s (offered %g, %.0f ms) — %s elapsed%s\n",
		mode, pd.Done, pd.Total, pd.Label, pd.Offered, pd.WallMS, elapsed.Round(time.Millisecond), eta)
}

// ---- live metrics (-metrics-addr / -metrics-out) ----

// metricsRun owns the process-wide live-metrics stack: one registry,
// one simulator self-profile, one progress tracker, one per-router
// fabric collector, plus the HTTP server and/or JSONL snapshotter the
// flags asked for. All of it observes through atomics and never feeds
// back into the simulation, so enabling it cannot perturb seeded
// results (pinned by TestMetricsPassive in internal/traffic).
type metricsRun struct {
	reg    *metrics.Registry
	prof   *metrics.SimProfile
	prog   *metrics.Progress
	coll   *metrics.FabricCollector
	server *metrics.Server
	snap   *metrics.Snapshotter
	out    *os.File
}

// newMetricsRun returns nil when neither metrics flag was given; every
// method on the nil receiver is a no-op, so the run modes attach
// unconditionally.
func newMetricsRun() *metricsRun {
	if *metricsAddr == "" && *metricsOut == "" {
		return nil
	}
	m := &metricsRun{reg: metrics.NewRegistry()}
	m.prof = metrics.NewSimProfile(m.reg)
	m.prog = metrics.NewProgress(m.reg)
	m.coll = metrics.NewFabricCollector(m.reg)
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		m.out = f
		m.snap = metrics.NewSnapshotter(f, *metricsEvery, m.reg, m.prof, m.prog)
		m.prof.SetSnapshotter(m.snap)
	}
	if *metricsAddr != "" {
		m.server = metrics.NewServer(m.reg, m.prof, m.prog)
		addr, err := m.server.Start(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics (progress: http://%s/progress)\n", addr, addr)
	}
	return m
}

// attach points a packet-run config at the shared registry and profile.
func (m *metricsRun) attach(cfg *traffic.Config) {
	if m == nil {
		return
	}
	cfg.Metrics = m.reg
	cfg.Prof = m.prof
}

// fabricProbe returns the per-router collector as a probe, or a true
// nil interface when metrics are off — returning the nil *FabricCollector
// itself would defeat obs.Multi's nil filter.
func (m *metricsRun) fabricProbe() obs.Probe {
	if m == nil {
		return nil
	}
	return m.coll
}

func (m *metricsRun) setTotal(n int) {
	if m == nil {
		return
	}
	m.prog.SetTotal(n)
}

func (m *metricsRun) pointStart() {
	if m == nil {
		return
	}
	m.prog.PointStart()
}

func (m *metricsRun) pointDone(label string, start time.Time) {
	if m == nil {
		return
	}
	m.prog.PointDone(label, float64(time.Since(start).Microseconds())/1e3)
}

// pointFinished records a point that reports only on completion (serial
// sweep points), keeping the busy gauge balanced.
func (m *metricsRun) pointFinished(label string, wallMS float64) {
	if m == nil {
		return
	}
	m.prog.PointStart()
	m.prog.PointDone(label, wallMS)
}

// close flushes the final snapshot and stops the HTTP server.
func (m *metricsRun) close() {
	if m == nil {
		return
	}
	if m.snap != nil {
		if err := m.snap.Close(); err != nil {
			log.Printf("metrics snapshots: %v", err)
		}
	}
	if m.out != nil {
		if err := m.out.Close(); err != nil {
			log.Printf("metrics snapshots: %v", err)
		}
	}
	if m.server != nil {
		m.server.Close()
	}
}

// ---- scenario plumbing ----

// runScenario resolves -scenario, applies explicit flags as overrides,
// and dispatches on the scenario's mode through the same run paths the
// flag-driven invocations use.
func runScenario() {
	sc := mustLoadScenario(*scenarioFlag)
	if err := applyOverrides(sc); err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	if *saveScenario != "" {
		exportScenario(sc)
	}
	// The scenario's heatmap bucket applies unless the flag was given.
	bucket := *heatBucket
	if !setFlags["heatmap-bucket"] && sc.Measure.HeatmapBucket > 0 {
		bucket = sc.Measure.HeatmapBucket
	}
	sk := newSinks(*traceFile, *eventsFile, *heatFile, *heatCSV, bucket)

	switch sc.Mode() {
	case scenario.ModeTrans:
		tc, err := sc.TransConfig()
		if err != nil {
			log.Fatal(err)
		}
		runTrans(tc, *jsonOut, sk)
	case scenario.ModeCampaign:
		cc, err := sc.CampaignConfig()
		if err != nil {
			log.Fatal(err)
		}
		runCampaign(cc, bucket)
	case scenario.ModeSweep:
		cfg, err := sc.PacketConfig()
		if err != nil {
			log.Fatal(err)
		}
		runSweep(cfg, sc.Measure.SweepRates)
	default:
		cfg, err := sc.PacketConfig()
		if err != nil {
			log.Fatal(err)
		}
		runSingle(cfg, sk)
	}
}

// mustLoadScenario resolves a built-in name or a file path.
func mustLoadScenario(arg string) *scenario.Scenario {
	sc, err := scenario.Resolve(arg)
	if err != nil {
		log.Fatal(err)
	}
	return sc
}

// applyOverrides writes every explicitly set flag onto the scenario.
// Flags that pick a workload the scenario doesn't have are errors, not
// silent reinterpretations.
func applyOverrides(sc *scenario.Scenario) error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	packet := func(name string) bool {
		if sc.Workload.Kind != scenario.KindPacket {
			fail("-%s applies to packet scenarios; %q is a %q workload", name, sc.Name, sc.Workload.Kind)
			return false
		}
		return true
	}
	socKind := func(name string) bool {
		if sc.Workload.Kind != scenario.KindSoC {
			fail("-%s applies to soc scenarios; %q is a %q workload", name, sc.Name, sc.Workload.Kind)
			return false
		}
		return true
	}
	ensureCampaign := func(name string) *scenario.Campaign {
		if sc.Measure.Campaign == nil {
			fail("-%s needs a campaign scenario (add -campaign to convert)", name)
			return &scenario.Campaign{}
		}
		return sc.Measure.Campaign
	}
	// Mode-converting flags are applied before the Visit loop: they
	// decide whether "rates" and the campaign axes land in the campaign
	// section or the sweep list, and flag.Visit's lexical order must
	// not (e.g. "rates" < "sweep" would route -rates into a campaign
	// the -sweep flag is about to delete).
	if setFlags["sweep"] && setFlags["campaign"] && *sweep && *campaign {
		return fmt.Errorf("-sweep and -campaign are mutually exclusive")
	}
	if setFlags["campaign"] && *campaign && packet("campaign") && sc.Measure.Campaign == nil {
		sc.Measure.SweepRates = nil
		sc.Measure.Campaign = &scenario.Campaign{}
	}
	if setFlags["sweep"] && *sweep && packet("sweep") {
		sc.Measure.Campaign = nil
	}
	if err != nil {
		return err
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			sc.Seed = *seed
		case "topology":
			sc.Fabric.Topology = *topo
		case "nodes":
			sc.Fabric.Nodes = *nodes
		case "mode":
			sc.Fabric.Mode = *mode
		case "fidelity":
			sc.Fabric.Fidelity = *fidelity
			if fid, e := transport.ParseFidelity(*fidelity); e == nil && fid == transport.FidelityCycle {
				// Canonical form: cycle is the implicit default, and an
				// explicit "cycle" would reject the scenario's loose
				// tuning fields if it carried any.
				sc.Fabric.Fidelity = ""
				sc.Fabric.LooseThreshold = 0
				sc.Fabric.LooseHysteresis = 0
				sc.Fabric.LooseWindow = 0
			}
		case "loose-threshold":
			sc.Fabric.LooseThreshold = *looseThr
		case "loose-hysteresis":
			sc.Fabric.LooseHysteresis = *looseHyst
		case "loose-window":
			sc.Fabric.LooseWindow = *looseWin
		case "qos":
			sc.Fabric.QoS = *qos
		case "warmup":
			w := *warmup
			sc.Measure.Warmup = &w
		case "measure":
			sc.Measure.Measure = *measure
		case "drain":
			sc.Measure.Drain = *drain
		case "heatmap-bucket":
			sc.Measure.HeatmapBucket = *heatBucket
		case "pattern":
			if packet(f.Name) {
				sc.Workload.Pattern = *pattern
			}
		case "rate":
			if sc.Workload.Kind == scenario.KindSoC {
				for i := range sc.Workload.Masters {
					sc.Workload.Masters[i].Rate = *rate
				}
			} else {
				sc.Workload.Rate = *rate
			}
		case "readfrac":
			rf := *readFrac
			if sc.Workload.Kind == scenario.KindSoC {
				for i := range sc.Workload.Masters {
					sc.Workload.Masters[i].ReadFrac = &rf
				}
			} else {
				sc.Workload.ReadFrac = &rf
			}
		case "window":
			if sc.Workload.Kind == scenario.KindSoC {
				for i := range sc.Workload.Masters {
					sc.Workload.Masters[i].Window = *window
				}
			} else {
				sc.Workload.Window = *window
			}
		case "payload":
			if packet(f.Name) {
				sc.Workload.PayloadBytes = *payload
			}
		case "hotfrac":
			if packet(f.Name) {
				sc.Workload.HotFrac = *hotFrac
			}
		case "hotnode":
			if packet(f.Name) {
				sc.Workload.HotNode = *hotNode
			}
		case "burstlen":
			if packet(f.Name) {
				sc.Workload.BurstLen = *burstLen
			}
		case "urgentfrac":
			if packet(f.Name) {
				sc.Workload.UrgentFrac = *urgentFrac
			}
		case "closed":
			if packet(f.Name) {
				sc.Workload.ClosedLoop = *closed
			}
		case "wb":
			if socKind(f.Name) {
				sc.Workload.Wishbone = *wb
			}
		case "hotspot-mem":
			if socKind(f.Name) {
				sc.Workload.Hotspot = *hotspotMem
			}
		case "trans":
			if *trans && sc.Workload.Kind != scenario.KindSoC {
				fail("-trans needs a soc scenario; %q is a %q workload", sc.Name, sc.Workload.Kind)
			}
		case "campaign", "sweep":
			// Handled before the loop; see above.
		case "patterns":
			if packet(f.Name) {
				ensureCampaign(f.Name).Patterns = strings.Split(*patList, ",")
			}
		case "topologies":
			if packet(f.Name) {
				ensureCampaign(f.Name).Topologies = strings.Split(*topoList, ",")
			}
		case "workers":
			if packet(f.Name) {
				ensureCampaign(f.Name).Workers = *workers
			}
		case "rates":
			if packet(f.Name) {
				rates := parseRates(*ratesFlag)
				if sc.Measure.Campaign != nil {
					sc.Measure.Campaign.Rates = rates
				} else {
					sc.Measure.SweepRates = rates
				}
			}
		}
	})
	if err == nil && setFlags["sweep"] && *sweep && len(sc.Measure.SweepRates) == 0 {
		sc.Measure.SweepRates = traffic.DefaultRates()
	}
	return err
}

// scenarioName derives the exported scenario's name from the output
// file ("-save-scenario runs/hot.scenario.json" names it "hot").
func scenarioName() string {
	name := filepath.Base(*saveScenario)
	name = strings.TrimSuffix(name, ".json")
	name = strings.TrimSuffix(name, ".scenario")
	if name == "" || name == "." {
		return "noctraffic-export"
	}
	return name
}

func exportScenario(sc *scenario.Scenario) {
	if err := sc.SaveFile(*saveScenario); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "saved scenario %q -> %s (re-run: noctraffic -scenario %s)\n",
		sc.Name, *saveScenario, *saveScenario)
}

func printScenarioList() {
	t := stats.NewTable("built-in scenarios (-scenario NAME; docs/SCENARIOS.md)",
		"name", "kind", "mode", "description")
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		t.AddRow(name, sc.Workload.Kind, string(sc.Mode()), sc.Description)
	}
	fmt.Println(t.Render())
}

// sinks bundles the optional observability outputs of one simulation:
// a span recorder feeding the Chrome-trace and JSONL files, and a link
// monitor feeding the heatmap JSON/CSV files.
type sinks struct {
	rec     *obs.SpanRecorder
	mon     *obs.LinkMonitor
	trace   string
	events  string
	heat    string
	heatCSV string
}

func newSinks(trace, events, heat, heatCSV string, bucket int64) *sinks {
	s := &sinks{trace: trace, events: events, heat: heat, heatCSV: heatCSV}
	if trace != "" || events != "" {
		s.rec = &obs.SpanRecorder{}
	}
	if heat != "" || heatCSV != "" {
		s.mon = obs.NewLinkMonitor(bucket)
	}
	return s
}

// probe returns the combined probe, nil when no sink was requested.
func (s *sinks) probe() obs.Probe {
	var ps []obs.Probe
	if s.rec != nil {
		ps = append(ps, s.rec)
	}
	if s.mon != nil {
		ps = append(ps, s.mon)
	}
	return obs.Multi(ps...)
}

// write flushes the requested files; label names the heatmap.
func (s *sinks) write(label string) {
	if s.rec != nil && s.trace != "" {
		writeFile(s.trace, s.rec.WriteChromeTrace)
	}
	if s.rec != nil && s.events != "" {
		writeFile(s.events, s.rec.WriteJSONL)
	}
	if s.mon != nil {
		rep := s.mon.Report(label)
		if s.heat != "" {
			writeFile(s.heat, rep.WriteJSON)
		}
		if s.heatCSV != "" {
			writeFile(s.heatCSV, rep.WriteCSV)
		}
	}
}

func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// zeroAsNeg maps an explicit 0 flag value onto the library's negative
// "literal zero" sentinel (the Config types treat a zero field as
// unset), so -readfrac 0 and -warmup 0 mean what the user typed.
func zeroAsNeg(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}

func zeroAsNegI(v int64) int64 {
	if v == 0 {
		return -1
	}
	return v
}

// socTopology maps a packet-level topology onto the SoC builder's enum
// for -trans runs.
func socTopology(t traffic.Topology) soc.Topology {
	switch t {
	case traffic.Mesh:
		return soc.Mesh
	case traffic.Torus:
		return soc.Torus
	case traffic.Ring:
		return soc.Ring
	case traffic.Tree:
		return soc.Tree
	}
	return soc.Crossbar
}

func parseTopologies(s string) []traffic.Topology {
	var out []traffic.Topology
	for _, f := range strings.Split(s, ",") {
		t, err := traffic.ParseTopology(f)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, t)
	}
	return out
}

func parsePatterns(s string) []traffic.Pattern {
	var out []traffic.Pattern
	for _, f := range strings.Split(s, ",") {
		p, err := traffic.ParsePattern(f)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func parseRates(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			log.Fatalf("bad rate %q", f)
		}
		out = append(out, v)
	}
	return out
}

func emitJSON(v any) {
	if err := stats.WriteJSON(os.Stdout, v); err != nil {
		log.Fatal(err)
	}
}

func printRun(res traffic.Result, showFlows bool) {
	loop := fmt.Sprintf("open loop @ %.3f txn/node/cyc", res.Offered)
	if res.ClosedLoop {
		loop = "closed loop"
	}
	fmt.Printf("%s on %s, %d nodes, %s: %d cycles simulated\n\n",
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
	fmt.Println(t.Render())

	h := stats.NewTable("latency histogram (cycles)", "range", "count")
	for _, b := range res.Hist {
		h.AddRow(fmt.Sprintf("[%d,%d]", b.Lo, b.Hi), b.Count)
	}
	fmt.Println(h.Render())

	if showFlows {
		fmt.Println(traffic.FlowTable(res).Render())
	}
}
