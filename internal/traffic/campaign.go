package traffic

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// This file is the campaign layer: one call fans a cartesian set of
// (topology × pattern × rate) load points across a worker pool, the
// point runner that also runs each sweep's points on one worker. Each
// point owns an isolated sim.Kernel, so points are embarrassingly
// parallel; the only shared state is the result slot each worker writes,
// indexed by the point's position in the enumeration. Per-point seeds
// are forked from the campaign seed by a label naming the point, so a
// point's stream depends on what it measures — never on worker count,
// scheduling, or the order other points finish. A campaign with
// Workers=1 is the serial reference run and produces bit-identical
// per-point results.

// CampaignConfig describes a cross-product sweep. Base supplies
// everything but the swept axes (its Topology/Pattern/Rate/ClosedLoop
// are overridden per point; its Seed seeds the campaign).
type CampaignConfig struct {
	Base       Config
	Topologies []Topology // default: Base.Topology only
	Patterns   []Pattern  // default: Base.Pattern only
	Rates      []float64  // default: DefaultRates()
	Workers    int        // worker-pool size (default: GOMAXPROCS)

	// HeatmapBuckets, when positive, attaches a fresh obs.LinkMonitor
	// (with that time-bucket width in cycles) to every point and
	// collects the per-point congestion heatmaps into
	// CampaignResult.Heatmaps. Monitors are per-point because a probe
	// may not be shared between concurrently running kernels; for the
	// same reason the campaign runner ignores Base.Probe and the fabric
	// collector of Base.Metrics. The rest of Base.Metrics is shared:
	// its profile and registry feed atomic counters, so the live totals
	// aggregate the whole campaign, and its progress tracker counts the
	// points and the busy workers.
	HeatmapBuckets int64

	// OnPoint, when non-nil, is called as each point completes —
	// serialized under the campaign's lock, in completion (not
	// enumeration) order. The CLI hooks stderr progress lines here.
	OnPoint func(PointDone)
}

// PointDone describes one completed sweep or campaign point for
// progress callbacks.
type PointDone struct {
	Index   int     // position in enumeration order
	Done    int     // points completed so far, including this one
	Total   int     // points scheduled
	Label   string  // "<topology>/<pattern>@<rate>"
	Seed    int64   // the point's derived seed
	Offered float64 // offered injection rate
	WallMS  float64 // wall-clock the point took
}

// CampaignPoint is one measured load point plus the seed it ran under.
type CampaignPoint struct {
	Seed int64 `json:"seed"`
	Result
}

// CampaignResult is the merged campaign report.
type CampaignResult struct {
	Nodes int `json:"nodes"`

	// Workers is the pool size the campaign ran on. It names the table
	// but stays out of the JSON: it never changes a point, and the
	// serialized result must depend only on the scenario (the server
	// caches it under a fingerprint that ignores the worker count).
	Workers int `json:"-"`

	Points []CampaignPoint    `json:"points"` // topology-major, then pattern, then rate
	Curves []SweepResult      `json:"curves"` // one latency-vs-load curve per (topology, pattern)
	Hist   []stats.HistBucket `json:"hist"`   // latency histogram merged across all points

	// Heatmaps holds one congestion heatmap per point, in point order,
	// when CampaignConfig.HeatmapBuckets asked for them; each is
	// labeled "<topology>/<pattern>@<rate>".
	Heatmaps []obs.HeatmapReport `json:"heatmaps,omitempty"`

	// Wall is the campaign's wall-clock digest; populated only when
	// Base.CollectWall is set. Without it the JSON report stays
	// byte-identical for a given seed by repo convention — wall clock
	// is the one number here that can't be.
	Wall *CampaignWall `json:"wall,omitempty"`
}

// CampaignWall is the whole-campaign wall-clock self-profile.
type CampaignWall struct {
	TotalMS      float64 `json:"total_ms"`
	Events       uint64  `json:"events"`         // clock edges fired across all points (deterministic)
	EventsPerSec float64 `json:"events_per_sec"` // aggregate across the worker pool
}

// pointSeed derives the deterministic seed for one campaign point from
// the campaign's base seed.
func pointSeed(base int64, topo Topology, pat Pattern, rate float64) int64 {
	return sim.ForkSeed(base, fmt.Sprintf("point/%s/%s/%g", topo, pat, rate))
}

// runPoints is the one loop that runs sweep and campaign points, and
// the one place that reports them: it sets the total of the points'
// progress tracker (cc.Base.Metrics.Progress), marks each point's
// start and end on it, and calls cc.OnPoint as each point completes.
// cc.Workers workers take the points in order, so one worker runs them
// in order, one kernel at a time. With cc.HeatmapBuckets set,
// each point gets its own LinkMonitor in place of its probe. Results,
// raw latency histograms and heatmaps come back in point order.
// A point's panic is recovered on its worker; once the pool has
// drained, the first one is raised again on the caller's goroutine,
// where a server's per-run recover can see it.
func (cc CampaignConfig) runPoints(cfgs []Config) ([]Result, []stats.Histogram, []obs.HeatmapReport) {
	prog := cc.Base.Metrics.Progress
	prog.SetTotal(len(cfgs))
	results := make([]Result, len(cfgs))
	hists := make([]stats.Histogram, len(cfgs))
	var heatmaps []obs.HeatmapReport
	if cc.HeatmapBuckets > 0 {
		heatmaps = make([]obs.HeatmapReport, len(cfgs))
	}
	// mu serializes the completion bookkeeping (done, OnPoint) and the
	// first panic; result slots need no lock, as each point writes only
	// its own index.
	var mu sync.Mutex
	done := 0
	var panicked any
	point := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if panicked == nil {
					panicked = p
				}
				mu.Unlock()
			}
		}()
		c := cfgs[i]
		var mon *obs.LinkMonitor
		if heatmaps != nil {
			mon = obs.NewLinkMonitor(cc.HeatmapBuckets)
			c.Probe = mon
		}
		prog.PointStart()
		start := time.Now()
		results[i], hists[i] = run(c)
		wallMS := durMS(time.Since(start))
		label := results[i].Label()
		if mon != nil {
			heatmaps[i] = mon.Report(label)
		}
		prog.PointDone(label, wallMS)
		mu.Lock()
		defer mu.Unlock()
		done++
		if cc.OnPoint != nil {
			cc.OnPoint(PointDone{Index: i, Done: done, Total: len(cfgs),
				Label: label, Seed: c.Seed, Offered: c.Rate, WallMS: wallMS})
		}
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				point(i)
			}
		}()
	}
	for i := range cfgs {
		mu.Lock()
		failed := panicked != nil
		mu.Unlock()
		if failed {
			break
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return results, hists, heatmaps
}

// Campaign runs every (topology × pattern × rate) point of cfg across a
// worker pool and merges the results. Points appear in enumeration
// order regardless of which worker ran them when.
func Campaign(cfg CampaignConfig) CampaignResult {
	if len(cfg.Topologies) == 0 {
		cfg.Topologies = []Topology{cfg.Base.Topology}
	}
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []Pattern{cfg.Base.Pattern}
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = DefaultRates()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}

	// Enumerate the full product up front: the point list (and with it
	// every per-point seed) is fixed before any worker starts.
	var cfgs []Config
	for _, topo := range cfg.Topologies {
		for _, pat := range cfg.Patterns {
			for _, rate := range cfg.Rates {
				c := cfg.Base
				c.Topology, c.Pattern, c.Rate = topo, pat, rate
				c.ClosedLoop = false
				c.Probe, c.Metrics.Collector = nil, nil // probes are per-kernel; see HeatmapBuckets
				c.Seed = pointSeed(cfg.Base.Seed, topo, pat, rate)
				cfgs = append(cfgs, c)
			}
		}
	}

	start := time.Now()
	results, hists, heatmaps := cfg.runPoints(cfgs)
	points := make([]CampaignPoint, len(results))
	for i, res := range results {
		points[i] = CampaignPoint{Seed: cfgs[i].Seed, Result: res}
	}
	cr := CampaignResult{
		Nodes:    cfg.Base.withDefaults().Nodes,
		Workers:  cfg.Workers,
		Points:   points,
		Heatmaps: heatmaps,
	}
	if cfg.Base.CollectWall {
		wall := &CampaignWall{TotalMS: durMS(time.Since(start))}
		for _, p := range points {
			if p.Wall != nil {
				wall.Events += p.Wall.Events
			}
		}
		if s := time.Since(start).Seconds(); s > 0 {
			wall.EventsPerSec = float64(wall.Events) / s
		}
		cr.Wall = wall
	}
	// Curves: consecutive runs of len(Rates) points share one
	// (topology, pattern) pair by construction.
	var merged stats.Histogram
	for i := range hists {
		merged.Merge(&hists[i])
	}
	cr.Hist = merged.Buckets()
	for lo := 0; lo < len(points); lo += len(cfg.Rates) {
		hi := lo + len(cfg.Rates)
		cr.Curves = append(cr.Curves, newSweepResult(results[lo:hi:hi]))
	}
	return cr
}

// Table renders the campaign's saturation summary: one row per
// (topology, pattern) curve.
func (cr CampaignResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("campaign — %d points on %d workers", len(cr.Points), cr.Workers),
		"topology", "pattern", "sat rate", "sat tput", "p99 @min rate", "p99 @max rate")
	for _, c := range cr.Curves {
		if len(c.Points) == 0 {
			continue
		}
		first, last := c.Points[0], c.Points[len(c.Points)-1]
		t.AddRow(c.Topology, c.Pattern, c.SatRate, c.SatThroughput,
			first.Latency.P99, last.Latency.P99)
	}
	return t
}
