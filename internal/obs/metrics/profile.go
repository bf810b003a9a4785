package metrics

import (
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"gonoc/internal/sim"
)

// Phase labels what the simulator is currently doing; exposed as the
// noc_sim_phase gauge (numeric) and as a string in /progress and
// snapshots.
type Phase int32

// Phases in lifecycle order.
const (
	PhaseIdle Phase = iota
	PhaseWarmup
	PhaseMeasure
	PhaseDrain
	PhaseDone
)

// String renders the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	case PhaseDrain:
		return "drain"
	case PhaseDone:
		return "done"
	}
	return "unknown"
}

// memEvery caps how often one profile's Advance re-reads the Go heap
// gauges. They come from runtime/metrics, which does not stop the
// world, so the first read of every fresh profile (a server run builds
// one per simulation) is cheap; the cap keeps the reads off the
// per-step publishing cadence of a long run.
const memEvery = 100 * time.Millisecond

// memMetrics are the runtime/metrics names of the heapAlloc,
// heapObjects and gcTotal gauges, in that order: MemStats' HeapAlloc,
// HeapObjects and NumGC.
var memMetrics = [3]string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/objects:objects",
	"/gc/cycles/total:gc-cycles",
}

// SimProfile is the simulator's self-profiling surface: runners
// advance their clocks through Run, which publishes the cycles of each
// step as it goes, and mark phases with SetPhase; the profile turns
// them into registry metrics — the cycle total, its session-average
// rate, Go heap gauges — plus the numbers /progress and snapshots
// report. A nil *SimProfile disables everything at zero cost, so
// runners call it unconditionally.
//
// One profile serves one simulation session, which may span many
// sequential runs (a sweep or campaign): totals accumulate across
// points.
type SimProfile struct {
	start time.Time

	cycles *Counter
	phaseG *Gauge
	phase  atomic.Int32

	heapAlloc   *Gauge
	heapObjects *Gauge
	gcTotal     *Gauge

	memMu   sync.Mutex
	lastMem time.Time
	mem     [len(memMetrics)]rtmetrics.Sample // guarded by memMu

	snap atomic.Pointer[Snapshotter]
}

// NewSimProfile returns a profile registering on reg, or nil when reg
// is nil (disabled).
func NewSimProfile(reg *Registry) *SimProfile {
	if reg == nil {
		return nil
	}
	p := &SimProfile{
		start:       time.Now(),
		cycles:      reg.Counter("noc_sim_cycles_total", "fabric cycles simulated"),
		phaseG:      reg.Gauge("noc_sim_phase", "current phase: 0 idle, 1 warmup, 2 measure, 3 drain, 4 done"),
		heapAlloc:   reg.Gauge("noc_go_heap_alloc_bytes", "Go heap bytes in use (runtime/metrics)"),
		heapObjects: reg.Gauge("noc_go_heap_objects", "live Go heap objects"),
		gcTotal:     reg.Gauge("noc_go_gc_total", "completed GC cycles"),
	}
	reg.GaugeFunc("noc_sim_wall_seconds", "wall-clock time since profiling started", func() float64 {
		return time.Since(p.start).Seconds()
	})
	reg.GaugeFunc("noc_sim_cycles_per_sec", "session-average fabric cycles per wall second", func() float64 {
		return rate(float64(p.cycles.Value()), time.Since(p.start))
	})
	for i, name := range memMetrics {
		p.mem[i].Name = name
	}
	return p
}

func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// SetSnapshotter attaches a JSONL snapshotter whose cadence is driven
// by this profile's publishing ticks (headless runs have no scraper to
// pace them).
func (p *SimProfile) SetSnapshotter(s *Snapshotter) {
	if p != nil {
		p.snap.Store(s)
	}
}

// Run advances clk by at most n cycles in steps of step cycles, the
// last step clipped to n, while more reports work left (nil: always).
// After each step it publishes the step's cycles, so the live cycle
// total equals the run's own after every step. It returns the cycles
// run. On a nil profile it only runs the clock. It is the one loop
// every runner advances its clock through.
func (p *SimProfile) Run(clk *sim.Clock, n, step int64, more func() bool) int64 {
	if p == nil && more == nil {
		clk.RunCycles(n)
		return n
	}
	ran := int64(0)
	for ran < n && (more == nil || more()) {
		s := min(step, n-ran)
		clk.RunCycles(s)
		ran += s
		p.Advance(s)
	}
	return ran
}

// SetPhase records a phase transition.
func (p *SimProfile) SetPhase(ph Phase) {
	if p == nil {
		return
	}
	p.phase.Store(int32(ph))
	p.phaseG.Set(float64(ph))
}

// Phase reads the current phase (PhaseIdle on a nil profile).
func (p *SimProfile) Phase() Phase {
	if p == nil {
		return PhaseIdle
	}
	return Phase(p.phase.Load())
}

// Advance publishes progress: dCycles fabric cycles simulated since the
// last call. It also paces the slow side-channels — the Go heap gauges
// (at most every 100ms) and the attached snapshotter.
func (p *SimProfile) Advance(dCycles int64) {
	if p == nil {
		return
	}
	if dCycles > 0 {
		p.cycles.Add(uint64(dCycles))
	}
	p.maybeSampleMem()
	if s := p.snap.Load(); s != nil {
		s.MaybeSnap()
	}
}

func (p *SimProfile) maybeSampleMem() {
	now := time.Now()
	p.memMu.Lock()
	defer p.memMu.Unlock()
	if now.Sub(p.lastMem) < memEvery {
		return
	}
	p.lastMem = now
	rtmetrics.Read(p.mem[:])
	p.heapAlloc.Set(float64(p.mem[0].Value.Uint64()))
	p.heapObjects.Set(float64(p.mem[1].Value.Uint64()))
	p.gcTotal.Set(float64(p.mem[2].Value.Uint64()))
}

// Cycles reads the cumulative cycle total (0 on a nil profile).
func (p *SimProfile) Cycles() int64 {
	if p == nil {
		return 0
	}
	return int64(p.cycles.Value())
}
