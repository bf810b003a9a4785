package traffic

import "gonoc/internal/stats"

// SweepResult is a walk of injection rates under one configuration: the
// latency-vs-offered-load curve plus its saturation summary.
type SweepResult struct {
	Pattern  string   `json:"pattern"`
	Topology string   `json:"topology"`
	Nodes    int      `json:"nodes"`
	Points   []Result `json:"points"`

	// SatRate is the highest offered rate that did not saturate (0 when
	// every point saturated); SatThroughput is the best accepted
	// throughput observed anywhere on the curve — the fabric's
	// saturation throughput for this pattern.
	SatRate       float64 `json:"sat_rate"`
	SatThroughput float64 `json:"sat_tput"`
}

// DefaultRates returns the standard sweep schedule: geometric at low
// load (to resolve the flat region cheaply), linear through the knee.
func DefaultRates() []float64 {
	return []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.13, 0.16, 0.20}
}

// Sweep runs cfg once per rate (open loop, at cfg's seed) and collects
// the curve. Its points run on the campaign's point runner with one
// worker: in rate order, so cfg.Probe and the fabric collector of
// cfg.Metrics observe one kernel at a time. The rig's progress tracker
// and onPoint, as CampaignConfig's OnPoint (nil for none), report each
// point as it completes; onPoint must not mutate the result. Sweep
// points carry no per-flow digests.
func Sweep(cfg Config, rates []float64, onPoint func(PointDone)) SweepResult {
	if len(rates) == 0 {
		rates = DefaultRates()
	}
	// cfg is passed to the runner un-defaulted: withDefaults is not
	// idempotent (negative sentinels map to 0, which a second pass would
	// re-default), so it must run exactly once, per point.
	cfgs := make([]Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = cfg
		cfgs[i].ClosedLoop, cfgs[i].Rate = false, rate
	}
	points, _, _ := CampaignConfig{Base: cfg, Workers: 1, OnPoint: onPoint}.runPoints(cfgs)
	return newSweepResult(points)
}

// newSweepResult assembles one latency-vs-load curve plus its saturation
// summary from per-rate points (ascending rate order). Shared by Sweep
// and Campaign.
func newSweepResult(points []Result) SweepResult {
	sr := SweepResult{Points: points}
	for _, res := range points {
		if !res.Saturated && res.Offered > sr.SatRate {
			sr.SatRate = res.Offered
		}
		if res.Throughput > sr.SatThroughput {
			sr.SatThroughput = res.Throughput
		}
	}
	if len(points) > 0 {
		sr.Pattern = points[0].Pattern
		sr.Topology = points[0].Topology
		sr.Nodes = points[0].Nodes
	}
	return sr
}

// Table renders the curve as a latency-vs-offered-load text table.
func (sr SweepResult) Table() *stats.Table {
	t := stats.NewTable(
		"latency vs offered load — "+sr.Pattern+" on "+sr.Topology,
		"offered", "accepted", "tput", "mean lat", "p50", "p95", "p99", "hops", "saturated")
	for _, p := range sr.Points {
		t.AddRow(p.Offered, p.InjRate, p.Throughput,
			p.Latency.Mean, p.Latency.P50, p.Latency.P95, p.Latency.P99,
			p.AvgHops, stats.Mark(p.Saturated))
	}
	return t
}
