package scenario

import (
	"fmt"

	"gonoc/internal/noctypes"
	"gonoc/internal/soc"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// This file is the resolver: it lowers a validated Scenario onto the
// concrete soc/traffic configs. Execute (execute.go) runs the lowered
// config; the CLIs build scenario documents rather than configs, so the
// document a run saves is the one it executes.

// DefaultSeed is the seed an omitted "seed" field selects (the same
// default the CLIs use).
const DefaultSeed = 1

func (s *Scenario) seed() int64 {
	if s.Seed == 0 {
		return DefaultSeed
	}
	return s.Seed
}

// netConfig lowers the fabric's transport knobs.
func (s *Scenario) netConfig() transport.NetConfig {
	n := transport.NetConfig{
		FlitBytes:      s.Fabric.FlitBytes,
		BufDepth:       s.Fabric.BufDepth,
		QoS:            s.Fabric.QoS,
		MaxPendingPkts: s.Fabric.MaxPendingPkts,
		LegacyLock:     s.Fabric.LegacyLock,
	}
	if s.Fabric.Mode == "saf" {
		n.Mode = transport.StoreAndForward
	}
	// Validate guarantees the string parses.
	n.Fidelity, _ = transport.ParseFidelity(s.Fabric.Fidelity)
	return n
}

// fracSentinel maps a schema pointer field onto the library convention
// (0 = default, negative = literal zero).
func fracSentinel(p *float64) float64 {
	switch {
	case p == nil:
		return 0
	case *p == 0:
		return -1
	default:
		return *p
	}
}

func warmupSentinel(p *int64) int64 {
	switch {
	case p == nil:
		return 0
	case *p == 0:
		return -1
	default:
		return *p
	}
}

// PacketConfig lowers a packet-kind scenario onto one traffic.Config
// (the single-run / sweep-base / campaign-base form).
func (s *Scenario) PacketConfig() (traffic.Config, error) {
	if s.Workload.Kind != KindPacket {
		return traffic.Config{}, fmt.Errorf("scenario %q: %s workload cannot lower onto a packet-level run (use TransConfig)", s.Name, s.Workload.Kind)
	}
	topo, err := transport.ParseTopology(s.Fabric.Topology)
	if err != nil {
		return traffic.Config{}, err
	}
	pat := traffic.UniformRandom
	if s.Workload.Pattern != "" {
		if pat, err = traffic.ParsePattern(s.Workload.Pattern); err != nil {
			return traffic.Config{}, err
		}
	}
	return traffic.Config{
		Seed:         s.seed(),
		Nodes:        s.Fabric.Nodes,
		Topology:     topo,
		MeshW:        s.Fabric.MeshW,
		MeshH:        s.Fabric.MeshH,
		TreeFanout:   s.Fabric.TreeFanout,
		Net:          s.netConfig(),
		Pattern:      pat,
		Rate:         s.Workload.Rate,
		PayloadBytes: s.Workload.PayloadBytes,
		ReadFrac:     fracSentinel(s.Workload.ReadFrac),
		HotFrac:      s.Workload.HotFrac,
		HotNode:      s.Workload.HotNode,
		BurstLen:     s.Workload.BurstLen,
		UrgentFrac:   s.Workload.UrgentFrac,
		ClosedLoop:   s.Workload.ClosedLoop,
		Window:       s.Workload.Window,
		Warmup:       warmupSentinel(s.Measure.Warmup),
		Measure:      s.Measure.Measure,
		Drain:        s.Measure.Drain,
	}, nil
}

// CampaignConfig lowers a campaign scenario onto traffic.CampaignConfig.
// HeatmapBuckets stays 0 — per-point heatmaps are an output concern the
// caller opts into (see Measure.HeatmapBucket and the noctraffic
// -heatmap flag).
func (s *Scenario) CampaignConfig() (traffic.CampaignConfig, error) {
	if s.Measure.Campaign == nil {
		return traffic.CampaignConfig{}, fmt.Errorf("scenario %q: no campaign section", s.Name)
	}
	base, err := s.PacketConfig()
	if err != nil {
		return traffic.CampaignConfig{}, err
	}
	c := s.Measure.Campaign
	cc := traffic.CampaignConfig{Base: base, Rates: c.Rates, Workers: c.Workers}
	for _, t := range c.Topologies {
		topo, err := transport.ParseTopology(t)
		if err != nil {
			return traffic.CampaignConfig{}, err
		}
		cc.Topologies = append(cc.Topologies, topo)
	}
	for _, p := range c.Patterns {
		pat, err := traffic.ParsePattern(p)
		if err != nil {
			return traffic.CampaignConfig{}, err
		}
		cc.Patterns = append(cc.Patterns, pat)
	}
	return cc, nil
}

// TransConfig lowers a soc-kind scenario onto traffic.RunTrans: one
// TransRole per declared master.
func (s *Scenario) TransConfig() (traffic.TransConfig, error) {
	if s.Workload.Kind != KindSoC {
		return traffic.TransConfig{}, fmt.Errorf("scenario %q: %s workload cannot lower onto the SoC's NIUs (use PacketConfig)", s.Name, s.Workload.Kind)
	}
	// Validate guarantees the topology parses.
	topo, _ := transport.ParseTopology(s.Fabric.Topology)
	tc := traffic.TransConfig{
		Seed:     s.seed(),
		Topology: topo,
		Hotspot:  s.Workload.Hotspot,
		Wishbone: s.Workload.Wishbone,
		Net:      s.netConfig(),
		Warmup:   warmupSentinel(s.Measure.Warmup),
		Measure:  s.Measure.Measure,
		Drain:    s.Measure.Drain,
	}
	for _, m := range s.Workload.Masters {
		prio, err := ParsePriority(m.Priority)
		if err != nil {
			return traffic.TransConfig{}, err
		}
		role := traffic.TransRole{
			Master:   m.Protocol,
			Rate:     m.Rate,
			Window:   m.Window,
			Bytes:    m.Bytes,
			ReadFrac: fracSentinel(m.ReadFrac),
		}
		if m.Priority != "" {
			role.Priority = prio
			role.PrioritySet = true
		}
		if m.Target != nil {
			role.Base = uint64(m.Target.Base)
			role.Size = uint64(m.Target.Size)
		}
		tc.Roles = append(tc.Roles, role)
	}
	return tc, nil
}

// SoCConfig lowers a soc-kind scenario onto a soc.Config for the
// generator-driven build (cmd/nocsim). The master roles contribute
// their NIU priorities; rates and targets are RunTrans concerns.
func (s *Scenario) SoCConfig() (soc.Config, error) {
	if s.Workload.Kind != KindSoC {
		return soc.Config{}, fmt.Errorf("scenario %q: %s workload does not describe a SoC build", s.Name, s.Workload.Kind)
	}
	topo, _ := transport.ParseTopology(s.Fabric.Topology)
	cfg := soc.Config{
		Seed:              s.seed(),
		Topology:          topo,
		Wishbone:          s.Workload.Wishbone,
		RequestsPerMaster: s.Workload.RequestsPerMaster,
		Net:               s.netConfig(),
	}
	for _, m := range s.Workload.Masters {
		if m.Priority == "" {
			continue
		}
		prio, err := ParsePriority(m.Priority)
		if err != nil {
			return soc.Config{}, err
		}
		if cfg.MasterPriority == nil {
			cfg.MasterPriority = map[string]noctypes.Priority{}
		}
		cfg.MasterPriority[m.Protocol] = prio
	}
	return cfg, nil
}
