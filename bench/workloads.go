package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"gonoc/internal/obs"
	"gonoc/internal/soc"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// Workload names, in the order the benchmark runs them.
const (
	wFig1   = "fig1-soc"
	wTrans  = "trans-reads"
	wBusy   = "mesh64-busy"
	wHybrid = "mesh64-hybrid"
	wServer = "server-mix"
)

var workloadNames = []string{wFig1, wTrans, wBusy, wHybrid, wServer}

// digest is the simulated result of one repetition. Simulated statistics
// are deterministic for a seed, so every repetition of a run — traced or
// not — must produce the same digest; for seed 1 it must also equal the
// one committed in baseline.json. For trans-reads, P50 and P99 are sums
// over the sockets.
type digest struct {
	Txns   int     `json:"txns"`
	Cycles int64   `json:"cycles"`
	P50    int64   `json:"p50"`
	P99    int64   `json:"p99"`
	Tput   float64 `json:"tput"`
	Flits  uint64  `json:"flits"`
	Hash   string  `json:"hash"` // sha256 prefix of the whole JSON result
}

// outcome is what one repetition of a simulation workload reports. Beyond
// the digest it carries the counts the traced run attributes time with;
// a field is zero where the workload's public API does not expose it.
type outcome struct {
	ops    int // completed transactions: the unit of ops_per_s
	digest digest

	idleMetric   string         // the per-layer metric that prices one idle cycle of this fabric
	events       uint64         // kernel events
	perSocket    map[string]int // completed transactions per protocol socket
	niuStalls    uint64         // master-NIU stall cycles
	peakTable    int            // largest master-NIU transaction table occupancy
	backpressure uint64         // traffic-layer injection backpressure
}

// simWorkload is one fixed unit of simulated work. rep runs it once; the
// probe, when non-nil, is attached through the layer's public Probe field
// and must not change the outcome, and tr records a span around each call
// into a layer.
type simWorkload struct {
	rep func(seed int64, probe obs.Probe, tr *tracer) (outcome, error)
}

// scale shrinks every workload for the package tests.
type scale struct {
	fig1Requests               int
	transMeasure, transDrain   int64
	busyMeasure, hybridMeasure int64
	meshDrain                  int64
	serverMeasure              int64
}

var (
	fullScale = scale{
		fig1Requests: 1000,
		transMeasure: 100_000, transDrain: 100_000,
		busyMeasure: 20_000, hybridMeasure: 40_000, meshDrain: 30_000,
		serverMeasure: 1000,
	}
	shortScale = scale{
		fig1Requests: 40,
		transMeasure: 4000, transDrain: 20_000,
		busyMeasure: 1000, hybridMeasure: 2000, meshDrain: 20_000,
		serverMeasure: 200,
	}
)

func simWorkloads(sc scale) map[string]simWorkload {
	return map[string]simWorkload{
		wFig1:   {rep: func(seed int64, p obs.Probe, tr *tracer) (outcome, error) { return fig1Rep(sc, seed, p, tr) }},
		wTrans:  {rep: func(seed int64, p obs.Probe, tr *tracer) (outcome, error) { return transRep(sc, seed, p, tr) }},
		wBusy:   {rep: func(seed int64, p obs.Probe, tr *tracer) (outcome, error) { return meshRep(sc, seed, p, tr, false) }},
		wHybrid: {rep: func(seed int64, p obs.Probe, tr *tracer) (outcome, error) { return meshRep(sc, seed, p, tr, true) }},
	}
}

// fig1Rep builds and runs the paper's Fig 1 system: eight sockets, each
// with a self-checking write-then-read-back scoreboard that System.Run
// verifies.
func fig1Rep(sc scale, seed int64, probe obs.Probe, tr *tracer) (outcome, error) {
	sp := tr.start("soc.BuildNoC", "soc", 0)
	s := soc.BuildNoC(soc.Config{Seed: seed, Wishbone: true, RequestsPerMaster: sc.fig1Requests, Probe: probe})
	tr.end(sp)
	sp = tr.start("System.Run", "soc", 0)
	cycles, err := s.Run(50_000_000)
	tr.end(sp)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", wFig1, err)
	}
	o := outcome{idleMetric: "soc.idle_cycle_ns.crossbar", events: s.K.Steps(), perSocket: map[string]int{}}
	names := make([]string, 0, len(s.MasterNIUs))
	for name := range s.MasterNIUs {
		names = append(names, name)
	}
	sort.Strings(names)
	type niuStats struct {
		Name      string
		Issued    uint64
		Completed uint64
		Posted    uint64
		Stalls    uint64
		PeakTable int
	}
	all := make([]niuStats, 0, len(names))
	for _, name := range names {
		st := s.MasterNIUs[name].Stats()
		o.ops += int(st.Completed)
		o.perSocket[name] = int(st.Completed)
		o.niuStalls += st.StallCycles
		o.peakTable = max(o.peakTable, st.PeakTable)
		all = append(all, niuStats{name, st.Issued, st.Completed, st.Posted, st.StallCycles, st.PeakTable})
	}
	o.digest = digest{Txns: o.ops, Cycles: cycles, Hash: hashJSON(struct {
		Cycles int64
		NIUs   []niuStats
	}{cycles, all})}
	if o.ops == 0 {
		return o, errors.New(wFig1 + ": no transactions completed")
	}
	return o, nil
}

// transRep is the noctraffic -trans path: every socket issues 64-byte read
// bursts with up to four outstanding, so the response path is loaded.
func transRep(sc scale, seed int64, probe obs.Probe, tr *tracer) (outcome, error) {
	sp := tr.start("traffic.RunTrans", "traffic", 0)
	res := traffic.RunTrans(traffic.TransConfig{
		Seed: seed, Topology: soc.Mesh, Wishbone: true,
		Rate: 0.015, Window: 4, Bytes: 64, ReadFrac: 1,
		Measure: sc.transMeasure, Drain: sc.transDrain,
		Probe: probe, CollectWall: probe != nil,
	})
	tr.end(sp)
	o := outcome{idleMetric: "soc.idle_cycle_ns.mesh", perSocket: map[string]int{}}
	if res.Wall != nil {
		o.events = res.Wall.Events
	}
	res.Wall = nil
	var errs int
	for _, m := range res.PerMaster {
		o.ops += m.Done
		o.perSocket[m.Master] = m.Done
		errs += m.Errors
		o.digest.P50 += m.Latency.P50
		o.digest.P99 += m.Latency.P99
	}
	o.digest.Txns, o.digest.Tput, o.digest.Hash = o.ops, res.Throughput, hashJSON(res)
	switch {
	case errs != 0:
		return o, fmt.Errorf("%s: %d transactions answered with an error", wTrans, errs)
	case res.Incomplete != 0:
		return o, fmt.Errorf("%s: %d transactions incomplete at the drain cap", wTrans, res.Incomplete)
	case o.ops == 0:
		return o, errors.New(wTrans + ": no transactions completed")
	}
	return o, nil
}

// meshRep drives uniform-random packet traffic over an 8×8 mesh: just
// below saturation on the cycle-accurate flit path, or at a lower load on
// the hybrid fabric, where the analytic path carries the packets.
func meshRep(sc scale, seed int64, probe obs.Probe, tr *tracer, hybrid bool) (outcome, error) {
	name, cfg := wBusy, traffic.Config{
		Seed: seed, Nodes: 64, Topology: traffic.Mesh, Pattern: traffic.UniformRandom,
		Rate: 0.025, Warmup: 1000, Measure: sc.busyMeasure, Drain: sc.meshDrain,
		Probe: probe, CollectWall: probe != nil,
	}
	if hybrid {
		name, cfg.Rate, cfg.Measure = wHybrid, 0.01, sc.hybridMeasure
		cfg.Net.Fidelity = transport.FidelityHybrid
	}
	sp := tr.start("traffic.Run", "traffic", 0)
	res := traffic.Run(cfg)
	tr.end(sp)
	o := outcome{idleMetric: "transport.mesh_idle_cycle_ns", ops: res.Latency.Count, backpressure: res.InjectBackpressure}
	if hybrid {
		o.idleMetric = "transport.hybrid_idle_cycle_ns"
	}
	if res.Wall != nil {
		o.events = res.Wall.Events
	}
	res.Wall = nil
	o.digest = digest{
		Txns: res.Latency.Count, Cycles: res.Cycles, P50: res.Latency.P50, P99: res.Latency.P99,
		Tput: res.Throughput, Flits: res.FabricFlits, Hash: hashJSON(res),
	}
	switch {
	case res.Incomplete != 0:
		return o, fmt.Errorf("%s: %d measured transactions incomplete at the drain cap", name, res.Incomplete)
	case res.Latency.Count == 0 || res.FabricFlits == 0:
		return o, fmt.Errorf("%s: measured nothing (%d txns, %d flits)", name, res.Latency.Count, res.FabricFlits)
	}
	return o, nil
}

// hashJSON fingerprints a result: any change to a simulated statistic
// changes the hash.
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: hashing result: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
