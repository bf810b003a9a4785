package scenario

import (
	"fmt"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/traffic"
)

// Options are the settings of one Execute call that belong to the
// caller, not to the scenario: where the run reports live metrics,
// which sinks observe it, and whether it measures wall clock. Only Wall
// changes the result, and only by adding the nondeterministic wall
// blocks; everything else observes.
type Options struct {
	// Metrics, when non-nil, is the run's live-metrics rig. Execute
	// hands it to the run's traffic config (traffic.Config.Metrics),
	// which feeds its self-profile and traffic counters, drives its
	// point progress, and attaches its fabric collector to every run
	// that owns one kernel at a time (single, each sweep point, trans).
	Metrics *metrics.Rig

	// Probe observes a single or trans run's fabric and NIUs, and each
	// sweep point in turn. Campaign points run concurrently and cannot
	// share a probe, so a campaign with a Probe is an error (use
	// Heatmaps).
	Probe obs.Probe

	// Wall sets CollectWall: the result carries its wall-clock
	// self-profile, the one nondeterministic field.
	Wall bool

	// Heatmaps records one congestion heatmap per campaign point, at
	// Measure.HeatmapBucket (the obs default when 0), into
	// CampaignResult.Heatmaps. Other modes attach a LinkMonitor as the
	// Probe instead; Heatmaps on them is an error.
	Heatmaps bool

	// OnPoint, when non-nil, is called as each point completes: the one
	// point of a single or trans run, each sweep point in rate order,
	// or each campaign point in completion order.
	OnPoint func(traffic.PointDone)
}

// Report is one executed scenario's result: exactly one of the four
// mode fields is set.
type Report struct {
	Scenario string                  `json:"scenario"`
	Mode     Mode                    `json:"mode"`
	Single   *traffic.Result         `json:"single,omitempty"`
	Sweep    *traffic.SweepResult    `json:"sweep,omitempty"`
	Campaign *traffic.CampaignResult `json:"campaign,omitempty"`
	Trans    *traffic.TransResult    `json:"trans,omitempty"`
}

// Result returns the report's one mode result. Its stats.WriteJSON
// encoding is what `noctraffic -json` prints and the server caches.
func (r *Report) Result() any {
	switch r.Mode {
	case ModeTrans:
		return r.Trans
	case ModeCampaign:
		return r.Campaign
	case ModeSweep:
		return r.Sweep
	}
	return r.Single
}

// Execute validates, lowers, and runs the scenario in the mode its
// measure section selects. It is the only run-mode dispatcher: the
// CLI, the server and experiment E14 all call it, so one document gives
// one result whichever of them runs it.
func Execute(s *Scenario, o Options) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Scenario: s.Name, Mode: s.Mode()}
	if o.Heatmaps && rep.Mode != ModeCampaign {
		return nil, fmt.Errorf("scenario %q: per-point heatmaps need a campaign; a %s run takes a LinkMonitor probe", s.Name, rep.Mode)
	}
	var m metrics.Rig
	if o.Metrics != nil {
		m = *o.Metrics
	}

	switch rep.Mode {
	case ModeTrans:
		tc, err := s.TransConfig()
		if err != nil {
			return nil, err
		}
		tc.Probe, tc.Metrics, tc.CollectWall = o.Probe, m, o.Wall
		var res traffic.TransResult
		onePoint(m.Progress, o.OnPoint, tc.Seed, func() (string, float64) {
			res = traffic.RunTrans(tc)
			if res.Rate == 0 {
				return "trans@per-role", 0 // masters at different rates
			}
			return fmt.Sprintf("trans@%g", res.Rate), res.Rate
		})
		rep.Trans = &res
	case ModeCampaign:
		if o.Probe != nil {
			return nil, fmt.Errorf("scenario %q: campaign points run concurrently and cannot share a probe (use per-point heatmaps)", s.Name)
		}
		cc, err := s.CampaignConfig()
		if err != nil {
			return nil, err
		}
		cc.Base.Metrics, cc.Base.CollectWall, cc.OnPoint = m, o.Wall, o.OnPoint
		if o.Heatmaps {
			cc.HeatmapBuckets = s.Measure.HeatmapBucket
			if cc.HeatmapBuckets == 0 {
				cc.HeatmapBuckets = obs.DefaultHeatmapBucket
			}
		}
		res := traffic.Campaign(cc)
		rep.Campaign = &res
	default: // single or sweep
		cfg, err := s.PacketConfig()
		if err != nil {
			return nil, err
		}
		cfg.Probe, cfg.Metrics, cfg.CollectWall = o.Probe, m, o.Wall
		if rep.Mode == ModeSweep {
			res := traffic.Sweep(cfg, s.Measure.SweepRates, o.OnPoint)
			rep.Sweep = &res
			break
		}
		var res traffic.Result
		onePoint(m.Progress, o.OnPoint, cfg.Seed, func() (string, float64) {
			res = traffic.Run(cfg)
			return res.Label(), res.Offered
		})
		rep.Single = &res
	}
	return rep, nil
}

// onePoint runs a single or trans simulation as a session of one point
// and reports it as traffic's point runner reports each sweep or
// campaign point: on prog, then to onPoint (nil for none). run returns
// the point's label and offered rate.
func onePoint(prog *metrics.Progress, onPoint func(traffic.PointDone), seed int64, run func() (label string, offered float64)) {
	prog.SetTotal(1)
	prog.PointStart()
	start := time.Now()
	label, offered := run()
	wallMS := float64(time.Since(start).Microseconds()) / 1e3
	prog.PointDone(label, wallMS)
	if onPoint != nil {
		onPoint(traffic.PointDone{Done: 1, Total: 1, Label: label,
			Seed: seed, Offered: offered, WallMS: wallMS})
	}
}
