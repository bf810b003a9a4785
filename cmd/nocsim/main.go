// Command nocsim builds one mixed-protocol SoC — the paper's Fig-1 NoC or
// the Fig-2 bridged reference bus — runs a seeded self-checking workload
// on its mixed-socket masters (seven, or eight with -wb), and prints
// per-master latency and interconnect statistics.
//
// Usage:
//
//	nocsim [-system noc|bus] [-topology crossbar|mesh|torus|ring|tree]
//	       [-mode wormhole|saf] [-fidelity cycle|hybrid] [-seed N]
//	       [-requests N] [-qos] [-wb] [-trace FILE] [-heatmap FILE]
//	       [-metrics-addr ADDR] [-metrics-out FILE] [-metrics-interval D]
//	       [-scenario NAME|FILE]
//
// -topology, -mode, -fidelity and -qos describe the NoC fabric: set
// explicitly with -system bus, each is an error that names it.
//
// -wb (NoC only) adds an eighth master — a WISHBONE IP behind its NIU —
// and a WISHBONE memory target to the demo topology.
//
// -trace (NoC only) writes the run's transaction/packet lifecycle spans
// as a Chrome trace_event file (open in Perfetto or chrome://tracing);
// -heatmap (NoC only) writes the per-link congestion heatmap JSON. Both
// come from internal/obs and observe the whole run.
//
// -metrics-addr serves live Prometheus metrics (/metrics) and a JSON
// progress document (/progress) over HTTP while the workload runs;
// -metrics-out appends periodic self-profiling snapshots as JSONL at
// the -metrics-interval cadence (internal/obs/metrics, reference in
// docs/OBSERVABILITY.md). Enabling them never changes seeded results.
//
// -scenario NAME|FILE (NoC only) builds the system from a declarative
// soc-kind scenario (internal/scenario, docs/SCENARIOS.md) instead of
// flags: topology, switching mode, QoS, WISHBONE inclusion, per-master
// NIU priorities, and the generator workload size all come from the
// file; explicitly set flags still override their scenario fields.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

func main() {
	system := flag.String("system", "noc", "interconnect: noc (Fig 1) or bus (Fig 2)")
	topo := flag.String("topology", "crossbar", "NoC topology: crossbar, mesh, torus, ring, tree")
	mode := flag.String("mode", "wormhole", "NoC switching: wormhole or saf")
	fidelity := flag.String("fidelity", "cycle", "NoC execution fidelity: cycle (exact) or hybrid (analytic latency model on cool links; docs/PERFORMANCE.md)")
	seed := flag.Int64("seed", 1, "random seed")
	requests := flag.Int("requests", 40, "write/read-back pairs per master")
	qos := flag.Bool("qos", true, "enable priority arbitration in switches")
	wb := flag.Bool("wb", false, "NoC only: add the WISHBONE master IP and memory target")
	traceFile := flag.String("trace", "", "NoC only: write a Chrome trace_event file (Perfetto/chrome://tracing)")
	heatFile := flag.String("heatmap", "", "NoC only: write the per-link congestion heatmap JSON")
	scenarioFlag := flag.String("scenario", "", "NoC only: build the SoC from a soc-kind scenario — a built-in name or a *.scenario.json file; explicit flags override (docs/SCENARIOS.md)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP while the workload runs: /metrics (Prometheus text) and /progress (JSON)")
	metricsOut := flag.String("metrics-out", "", "append periodic self-profiling snapshots as JSONL to this file")
	metricsEvery := flag.Duration("metrics-interval", 250*time.Millisecond, "snapshot cadence for -metrics-out")
	flag.Parse()
	set := map[string]bool{} // flags given explicitly
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	for _, name := range []string{"topology", "mode", "fidelity", "qos"} {
		if set[name] && *system != "noc" {
			log.Fatalf("-%s requires -system noc (the Fig-2 bus has no NoC fabric)", name)
		}
	}
	if *wb && *system != "noc" {
		log.Fatal("-wb requires -system noc (the Fig-2 bus has no WISHBONE bridge)")
	}
	if *scenarioFlag != "" && *system != "noc" {
		log.Fatal("-scenario requires -system noc (scenarios declare NoC compositions)")
	}
	if (*traceFile != "" || *heatFile != "") && *system != "noc" {
		log.Fatal("-trace/-heatmap require -system noc (the Fig-2 bus has no fabric to instrument)")
	}
	var rec *obs.SpanRecorder
	var mon *obs.LinkMonitor
	var probes []obs.Probe
	if *traceFile != "" {
		rec = &obs.SpanRecorder{}
		probes = append(probes, rec)
	}
	if *heatFile != "" {
		mon = obs.NewLinkMonitor(obs.DefaultHeatmapBucket)
		probes = append(probes, mon)
	}

	// Live-metrics stack (-metrics-addr / -metrics-out): shared registry,
	// simulator self-profile, and per-router fabric collector. Purely
	// observational — seeded results are identical with it on or off.
	live, err := metrics.StartLive(*metricsAddr, *metricsOut, *metricsEvery, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	var m metrics.Rig
	if live.Rig != nil {
		m = *live.Rig
	}
	probes = append(probes, live.Rig.Probe())
	var cfg soc.Config
	if *scenarioFlag != "" {
		sc := loadScenario(*scenarioFlag)
		// Explicitly set flags override their scenario fields.
		for name, apply := range map[string]func(){
			"topology": func() { sc.Fabric.Topology = *topo },
			"mode":     func() { sc.Fabric.Mode = *mode },
			"qos":      func() { sc.Fabric.QoS = *qos },
			"seed":     func() { sc.Seed = *seed },
			"requests": func() { sc.Workload.RequestsPerMaster = *requests },
			"wb":       func() { sc.Workload.Wishbone = *wb },
		} {
			if set[name] {
				apply()
			}
		}
		if err := sc.Validate(); err != nil {
			log.Fatal(err)
		}
		if cfg, err = sc.SoCConfig(); err != nil {
			log.Fatal(err)
		}
		// Mirror the resolved composition back into the display flags.
		*topo = sc.Fabric.Topology
		*mode = "wormhole"
		if sc.Fabric.Mode == "saf" {
			*mode = "saf"
		}
		*seed = cfg.Seed
		*wb = cfg.Wishbone
	} else {
		cfg = soc.Config{Seed: *seed, RequestsPerMaster: *requests, Wishbone: *wb}
		cfg.Net.QoS = *qos
		if cfg.Topology, err = transport.ParseTopology(*topo); err != nil {
			log.Fatal(err)
		}
		switch *mode {
		case "wormhole":
			cfg.Net.Mode = transport.Wormhole
		case "saf":
			cfg.Net.Mode = transport.StoreAndForward
		default:
			log.Fatalf("unknown switching mode %q", *mode)
		}
	}
	fid, err := transport.ParseFidelity(*fidelity)
	if err != nil {
		log.Fatal(err)
	}
	if set["fidelity"] || *scenarioFlag == "" {
		// An explicit flag overrides the scenario's fidelity.
		cfg.Net.Fidelity = fid
	}
	cfg.Probe = obs.Multi(probes...)

	var s *soc.System
	switch *system {
	case "noc":
		s = soc.BuildNoC(cfg)
	case "bus":
		s = soc.BuildBus(cfg)
	default:
		log.Fatalf("unknown system %q", *system)
	}
	s.Prof = m.Profile

	m.Profile.SetPhase(metrics.PhaseMeasure)
	m.Progress.SetTotal(1)
	m.Progress.PointStart()
	start := time.Now()
	cycles, err := s.Run(50_000_000)
	if err != nil {
		log.Fatal(err)
	}
	m.Profile.SetPhase(metrics.PhaseDone)
	// Only the NoC has a topology and a switching mode to name.
	label, fabric := "nocsim/bus", ""
	if *system == "noc" {
		label = fmt.Sprintf("nocsim/%s/%s", *topo, *mode)
		fabric = fmt.Sprintf(" topology=%s mode=%s", *topo, *mode)
	}
	m.Progress.PointDone(label, float64(time.Since(start).Microseconds())/1e3)

	fmt.Printf("system=%s%s seed=%d: %d masters finished in %d cycles\n\n",
		*system, fabric, *seed, len(s.Gens), cycles)

	masters := soc.Masters(*wb)
	t := stats.NewTable("per-master results",
		"master", "pairs", "mean lat (cyc)", "p50", "p95", "max", "mismatches")
	for _, name := range masters {
		g := s.Gens[name].Stats()
		t.AddRow(name, g.Completed, g.Latency.Mean(), g.Latency.Percentile(50),
			g.Latency.Percentile(95), g.Latency.Max(), g.Mismatches)
	}
	fmt.Println(t.Render())

	if s.Net != nil {
		nt := stats.NewTable("NIU statistics", "NIU", "issued", "completed", "posted", "stall cycles", "peak table")
		for _, name := range masters {
			st := s.MasterNIUs[name].Stats()
			nt.AddRow(name, st.Issued, st.Completed, st.Posted, st.StallCycles, st.PeakTable)
		}
		fmt.Println(nt.Render())
		fmt.Printf("fabric: %d packets injected, %d ejected\n", s.Net.Injected(), s.Net.Ejected())
	}
	if s.Bus != nil {
		bs := s.Bus.Stats()
		fmt.Printf("bus: busy=%d idle=%d lock=%d decode-errors=%d grants=%v\n",
			bs.BusyCycles, bs.IdleCycles, bs.LockCycles, bs.DecodeErrors, bs.Grants)
	}
	if rec != nil {
		writeFile(*traceFile, rec.WriteChromeTrace)
		fmt.Printf("trace: %d span events -> %s\n", rec.Len(), *traceFile)
	}
	if mon != nil {
		rep := mon.Report(label)
		writeFile(*heatFile, rep.WriteJSON)
		fmt.Printf("heatmap: %d links, %d flits -> %s\n", len(rep.Links), rep.TotalFlits, *heatFile)
	}
	// os.Exit skips defers, so flush the snapshot stream explicitly.
	if err := live.Close(); err != nil {
		log.Fatal(err)
	}
	if *metricsOut != "" {
		fmt.Printf("metrics: %d snapshots -> %s\n", live.Snapshots(), *metricsOut)
	}
	os.Exit(0)
}

// loadScenario resolves a built-in name or a file path and requires a
// soc-kind workload (packet scenarios have no IP to generate for).
func loadScenario(arg string) *scenario.Scenario {
	sc, err := scenario.Resolve(arg)
	if err != nil {
		log.Fatal(err)
	}
	if sc.Workload.Kind != scenario.KindSoC {
		log.Fatalf("scenario %q is a %q workload; nocsim builds %q scenarios (run packet workloads with noctraffic -scenario)",
			sc.Name, sc.Workload.Kind, scenario.KindSoC)
	}
	return sc
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
