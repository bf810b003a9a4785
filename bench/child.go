package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"
	"time"

	"gonoc/internal/obs"
)

// baselineJSON holds the host record, the seed-1 end-to-end baseline and
// the seed-1 digests every full-scale run of seed 1 must reproduce.
//
//go:embed baseline.json
var baselineJSON []byte

func expectedDigests() (map[string]digest, error) {
	var b struct {
		Expected map[string]digest `json:"expected"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	return b.Expected, nil
}

const (
	// minReps timed repetitions run however long they take.
	minReps = 3
	// mixWarmOps requests per client warm the service up.
	mixWarmOps = 8
)

// childMain runs inside a child process: it sets the workload up, writes
// "ready", then (unless mode is setup) measures, and writes its result as
// the last line.
func childMain(mode, name string, seed int64, sc scale, dur time.Duration, traceOut string, stdout, stderr io.Writer) int {
	c := &checker{name: name, seed: seed, stderr: stderr}
	if sc == fullScale {
		exp, err := expectedDigests()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		c.expect = exp
	}
	ready := func() { fmt.Fprintln(stdout, "ready") }
	var res result
	var err error
	switch mode {
	case "setup", "measure":
		res, err = measure(c, mode == "measure", sc, dur, ready)
	case "trace":
		if traceOut == "" {
			traceOut = fmt.Sprintf(".bench_build/trace/%s-seed%d.json", name, seed)
		}
		res, err = traced(c, sc, dur, traceOut, ready, stderr)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// checker applies the correctness gates and counts operations.
type checker struct {
	name      string
	seed      int64
	expect    map[string]digest // seed-1 digests; nil off full scale
	ref       *digest           // this run's first digest
	attempted int
	failed    int
	stderr    io.Writer
}

func (c *checker) fail(ops int, format string, args ...any) {
	c.failed += max(ops, 1)
	fmt.Fprintf(c.stderr, "bench: %s: FAIL: %s\n", c.name, fmt.Sprintf(format, args...))
}

// rep checks one simulation repetition: it must succeed, and its digest
// must equal the run's first, which for seed 1 must equal the committed one.
func (c *checker) rep(label string, o outcome, err error) {
	c.attempted += max(o.ops, 1)
	switch {
	case err != nil:
		c.fail(o.ops, "%s: %v", label, err)
	case c.ref == nil:
		c.ref = &o.digest
		if want, ok := c.expect[c.name]; ok && c.seed == 1 && want != o.digest {
			c.fail(o.ops, "%s: digest %+v, want the committed %+v", label, o.digest, want)
		}
	case o.digest != *c.ref:
		c.fail(o.ops, "%s: digest %+v differs from the first repetition's %+v", label, o.digest, *c.ref)
	}
}

// mix counts one closed loop of the server workload.
func (c *checker) mix(label string, r *mixResult) {
	c.attempted += r.requests() + r.failed
	if r.failed > 0 {
		c.fail(r.failed, "%s: %d failed requests, first: %v", label, r.failed, r.errs)
	}
}

// check counts one whole-run check.
func (c *checker) check(label string, err error) {
	c.attempted++
	if err != nil {
		c.fail(1, "%s: %v", label, err)
	}
}

func (c *checker) result(m map[string]metric) result {
	if m == nil {
		m = map[string]metric{}
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// measure sets the workload up (one untimed repetition, so caches fill and
// lazy set-up finishes), reports ready, and then repeats it for dur.
func measure(c *checker, timed bool, sc scale, dur time.Duration, ready func()) (result, error) {
	if c.name == wServer {
		return measureServer(c, timed, sc, dur, ready)
	}
	w := simWorkloads(sc)[c.name]
	o, err := w.rep(c.seed, nil, nil)
	c.rep("warm-up", o, err)
	ready()
	if !timed {
		return c.result(nil), nil
	}
	var rates, walls []float64
	ops := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(walls) < minReps || time.Since(start) < dur {
		t0 := time.Now()
		o, err := w.rep(c.seed, nil, nil)
		d := time.Since(t0)
		c.rep(fmt.Sprintf("repetition %d", len(walls)+1), o, err)
		walls = append(walls, float64(d.Nanoseconds())/1e6)
		rates = append(rates, float64(o.ops)/d.Seconds())
		ops += o.ops
	}
	runtime.ReadMemStats(&ms1)
	return c.result(map[string]metric{
		"ops_per_s":     {median(rates), "op/s"},
		"op_ms_p50":     {median(walls), "ms"},
		"allocs_per_op": {float64(ms1.Mallocs-ms0.Mallocs) / float64(max(ops, 1)), "count"},
	}), nil
}

func measureServer(c *checker, timed bool, sc scale, dur time.Duration, ready func()) (result, error) {
	svc := startService()
	warm := mixLoop(svc, sc, c.seed, 0, mixWarmOps, time.Time{}, nil)
	c.mix("warm-up", warm)
	ready()
	misses, hits := len(warm.misses), len(warm.hits)
	var m map[string]metric
	if timed {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		loop := mixLoop(svc, sc, c.seed, 1, 0, time.Now().Add(dur), nil)
		runtime.ReadMemStats(&ms1)
		c.mix("timed loop", loop)
		c.check("first timed miss", checkFirstMiss(loop))
		misses, hits = misses+len(loop.misses), hits+len(loop.hits)
		n := max(loop.requests(), 1)
		m = map[string]metric{
			"ops_per_s":     {float64(loop.requests()) / loop.elapsed.Seconds(), "op/s"},
			"op_ms_p50":     {pctMS(append(append([]time.Duration(nil), loop.misses...), loop.hits...), 50), "ms"},
			"allocs_per_op": {float64(ms1.Mallocs-ms0.Mallocs) / float64(n), "count"},
		}
	}
	c.check("first warm-up miss", checkFirstMiss(warm))
	c.check("cache counters", checkCacheCounts(svc, misses, hits))
	c.check("shutdown", svc.close())
	return c.result(m), nil
}

// gcSample reads the runtime's GC accounting.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// gcMetrics sets the runtime layer's metrics for the interval a..b in
// which ops operations ran.
func gcMetrics(m map[string]float64, a, b gcSample, ops int) {
	m["runtime.gc_cpu_frac"] = 0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	m["runtime.gc_cycles_per_op"] = (b.cycles - a.cycles) / float64(max(ops, 1))
}

// traced runs the workload once untraced and once with spans and the
// counting probe, runs the layer drivers, prints the per-layer and
// attribution tables, and writes the Chrome trace.
func traced(c *checker, sc scale, dur time.Duration, traceOut string, ready func(), stderr io.Writer) (result, error) {
	tr := newTracer()
	m := map[string]float64{}
	var finish func(io.Writer)
	if c.name == wServer {
		finish = traceServer(c, sc, tr, m, ready)
	} else {
		finish = traceSim(c, sc, tr, m, ready)
	}

	// The drivers share the run's time; a short run times a fixed few
	// iterations instead.
	benchtime := (dur / 50).String()
	if sc != fullScale {
		benchtime = "10x"
	}
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return result{}, err
	}
	lm, err := runLayerDrivers(tr, sc)
	c.check("layer drivers", err)
	for k, v := range lm {
		m[k] = v
	}

	finish(stderr)
	printSelfTimes(stderr, tr)
	out := map[string]metric{}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("per-layer metric %s not measured (%v)", d.name, v)
		}
		out[d.name] = metric{v, d.unit}
	}
	if err := tr.writeChrome(traceOut, c.name); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stderr, "bench: %s: trace written to %s\n", c.name, traceOut)
	return c.result(out), nil
}

// traceSim runs a simulation workload untraced and traced and sets the
// metrics derived from the traced run's counts. The function it returns
// runs after the layer drivers: it sets the metrics that need their costs
// and prints the attribution table.
func traceSim(c *checker, sc scale, tr *tracer, m map[string]float64, ready func()) func(io.Writer) {
	w := simWorkloads(sc)[c.name]
	o, err := w.rep(c.seed, nil, nil)
	c.rep("warm-up", o, err)
	ready()

	g0 := readGC()
	t0 := time.Now()
	o, err = w.rep(c.seed, nil, nil)
	wall := time.Since(t0)
	g1 := readGC()
	c.rep("untraced", o, err)
	gcMetrics(m, g0, g1, o.ops)

	p := &countProbe{}
	t0 = time.Now()
	o, err = w.rep(c.seed, p, tr)
	m["bench.trace_overhead"] = time.Since(t0).Seconds() / wall.Seconds()
	c.rep("traced", o, err) // the digest check is the passivity check

	ops := float64(max(o.ops, 1))
	cycles := o.digest.Cycles
	if cycles == 0 {
		cycles = p.lastSeen // RunTrans does not report its cycle count
	}
	flits, stalls, queued := p.kinds[obs.KindFlit], p.kinds[obs.KindStall], p.kinds[obs.KindQueued]
	m["sim.events_per_txn"] = float64(o.events) / ops
	m["niu.stall_cycles_per_txn"] = float64(o.niuStalls) / ops
	m["niu.peak_table"] = float64(o.peakTable)
	m["transport.flits_per_txn"] = float64(flits) / ops
	m["transport.stall_frac"] = ratio(stalls, stalls+flits)
	m["transport.analytic_frac"] = 1 - ratio(p.flitPathPkts(), queued)
	if queued == 0 {
		m["transport.analytic_frac"] = 0
	}
	m["traffic.backpressure_per_txn"] = float64(o.backpressure) / ops
	m["soc.idle_share"] = 0

	return func(w io.Writer) {
		idle := m[o.idleMetric]
		rows := []attribRow{{"idle cycles", fmt.Sprintf("%d × %.0f ns (%s)", cycles, idle, o.idleMetric), float64(cycles) * idle}}
		if o.perSocket != nil { // a SoC workload: idle sockets plus per-transaction protocol costs
			m["soc.idle_share"] = float64(cycles) * idle / float64(wall.Nanoseconds())
			for _, s := range sockets {
				if n := o.perSocket[s]; n > 0 {
					ns := m["protocols."+s+".marginal_ns"]
					rows = append(rows, attribRow{s + " transactions", fmt.Sprintf("%d × %.0f ns", n, ns), float64(n) * ns})
				}
			}
		} else { // a packet workload: flits on the flit path, analytic packets
			flitNS, pktNS := m["transport.flit_ns"], m["transport.hybrid_pkt_ns"]
			analytic := queued - min(p.flitPathPkts(), queued)
			rows = append(rows,
				attribRow{"flit-path flits", fmt.Sprintf("%d × %.1f ns", flits, flitNS), float64(flits) * flitNS},
				attribRow{"analytic packets", fmt.Sprintf("%d × %.0f ns", analytic, pktNS), float64(analytic) * pktNS})
		}
		printAttribution(w, c.name, rows, float64(wall.Nanoseconds()), "untraced repetition wall")
	}
}

// traceServer runs the closed loop untraced and traced with the same
// number of requests; the function it returns prints the attribution
// table once the layer drivers have run.
func traceServer(c *checker, sc scale, tr *tracer, m map[string]float64, ready func()) func(io.Writer) {
	svc := startService()
	warm := mixLoop(svc, sc, c.seed, 0, mixWarmOps, time.Time{}, nil)
	c.mix("warm-up", warm)
	ready()

	g0 := readGC()
	un := mixLoop(svc, sc, c.seed, 2, mixDriverOps, time.Time{}, nil)
	g1 := readGC()
	c.mix("untraced loop", un)
	gcMetrics(m, g0, g1, un.requests())
	tl := mixLoop(svc, sc, c.seed, 3, mixDriverOps, time.Time{}, tr)
	c.mix("traced loop", tl)
	m["bench.trace_overhead"] = tl.elapsed.Seconds() / un.elapsed.Seconds()

	c.check("first untraced miss", checkFirstMiss(un))
	t0 := time.Now()
	c.check("first traced miss", checkFirstMiss(tl))
	direct := time.Since(t0)
	misses := len(warm.misses) + len(un.misses) + len(tl.misses)
	hits := len(warm.hits) + len(un.hits) + len(tl.hits)
	c.check("cache counters", checkCacheCounts(svc, misses, hits))
	c.check("shutdown", svc.close())
	for _, k := range []string{"sim.events_per_txn", "niu.stall_cycles_per_txn", "niu.peak_table",
		"transport.flits_per_txn", "transport.stall_frac", "transport.analytic_frac",
		"traffic.backpressure_per_txn", "soc.idle_share"} {
		m[k] = 0 // the service's simulations run behind HTTP, out of the probe's reach
	}

	return func(w io.Writer) {
		var client time.Duration
		for _, d := range append(append([]time.Duration(nil), tl.misses...), tl.hits...) {
			client += d
		}
		hitNS := m["server.hit_handler_us"] * 1e3
		printAttribution(w, c.name, []attribRow{
			{"cache hits in the handler", fmt.Sprintf("%d × %.0f µs", len(tl.hits), hitNS/1e3), float64(len(tl.hits)) * hitNS},
			{"miss simulations", fmt.Sprintf("%d × %.2f ms (direct run)", len(tl.misses), float64(direct.Nanoseconds())/1e6), float64(len(tl.misses)) * float64(direct.Nanoseconds())},
		}, float64(client.Nanoseconds()), "traced client time (sum of request latencies)")
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// attribRow is one line of an attribution table: a share of the wall
// time explained by a count times a layer driver's cost.
type attribRow struct {
	what, basis string
	ns          float64
}

// printAttribution prints the explained rows, the measured total, and the
// remainder as measured: nothing is scaled to make the rows sum.
func printAttribution(w io.Writer, name string, rows []attribRow, measuredNS float64, measured string) {
	fmt.Fprintf(w, "\nattribution: %s\n", name)
	explained := 0.0
	for _, r := range rows {
		explained += r.ns
		fmt.Fprintf(w, "  %-28s %-36s %10.1f ms %6.1f%%\n", r.what, r.basis, r.ns/1e6, 100*r.ns/measuredNS)
	}
	fmt.Fprintf(w, "  %-28s %-36s %10.1f ms\n", "measured", measured, measuredNS/1e6)
	fmt.Fprintf(w, "  %-28s %-36s %10.1f ms %6.1f%%\n", "unexplained", "measured - explained", (measuredNS-explained)/1e6, 100*(measuredNS-explained)/measuredNS)
}

func printSelfTimes(w io.Writer, tr *tracer) {
	fmt.Fprintf(w, "\nspans by layer (self = span time not covered by child spans)\n")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(w, "  %-10s %6d spans %10.1f ms total %10.1f ms self\n", r.layer, r.spans,
			float64(r.total.Nanoseconds())/1e6, float64(r.self.Nanoseconds())/1e6)
	}
}
