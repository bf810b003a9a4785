package scenario

import (
	"fmt"
	"math"
	"strings"

	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/soc"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// Every validation error names the offending field by its JSON path
// (e.g. "workload.masters[2].protocol"), so a failing file is fixable
// without reading this source.

// FieldError is a semantic validation error carrying the JSON path of
// the offending field. Validate (and therefore Load) returns it, so
// structured consumers — the nocserver 400 body — can extract the path
// with errors.As instead of re-parsing the message.
type FieldError struct {
	Field string // JSON path, e.g. "workload.masters[2].protocol"
	Msg   string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Msg)
}

func errf(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// protocols is the socket vocabulary of the SoC build, in driving order.
var protocols = soc.Masters(true)

func knownProtocol(p string) bool {
	for _, q := range protocols {
		if p == q {
			return true
		}
	}
	return false
}

// ParsePriority resolves a scenario priority name onto the noctypes
// level. The empty string is the default level.
func ParsePriority(s string) (noctypes.Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return noctypes.PrioDefault, nil
	case "low":
		return noctypes.PrioLow, nil
	case "high":
		return noctypes.PrioHigh, nil
	case "urgent":
		return noctypes.PrioUrgent, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want low|default|high|urgent)", s)
}

func validFrac(field string, v float64) error {
	if v < 0 || v > 1 {
		return errf(field, "%g outside [0,1]", v)
	}
	return nil
}

// Validate checks the whole scenario and returns the first problem
// found, naming the offending field. Load calls it automatically;
// callers that build or mutate scenarios in Go should call it before
// lowering.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return errf("version", "unsupported scenario version %d (this build reads version %d)", s.Version, Version)
	}
	if strings.TrimSpace(s.Name) == "" {
		return errf("name", "required (a scenario must be nameable to be reusable)")
	}
	if s.Seed < 0 {
		return errf("seed", "%d is negative", s.Seed)
	}
	if err := s.validateFabric(); err != nil {
		return err
	}
	switch s.Workload.Kind {
	case KindPacket:
		if err := s.validatePacket(); err != nil {
			return err
		}
	case KindSoC:
		if err := s.validateSoC(); err != nil {
			return err
		}
	case "":
		return errf("workload.kind", "required (want %q or %q)", KindPacket, KindSoC)
	default:
		return errf("workload.kind", "unknown kind %q (want %q or %q)", s.Workload.Kind, KindPacket, KindSoC)
	}
	if err := s.validateMeasure(); err != nil {
		return err
	}
	return s.validateAxes()
}

func (s *Scenario) validateFabric() error {
	f := s.Fabric
	if f.Topology == "" {
		return errf("fabric.topology", "required (want crossbar|mesh|torus|ring|tree)")
	}
	if _, err := transport.ParseTopology(f.Topology); err != nil {
		return errf("fabric.topology", "unknown topology %q (want crossbar|mesh|torus|ring|tree)", f.Topology)
	}
	switch f.Mode {
	case "", "wormhole", "saf":
	default:
		return errf("fabric.mode", "unknown switching mode %q (want wormhole|saf)", f.Mode)
	}
	if _, err := transport.ParseFidelity(f.Fidelity); err != nil {
		return errf("fabric.fidelity", "unknown fidelity %q (want cycle|hybrid)", f.Fidelity)
	}
	for _, c := range []struct {
		field string
		v     int
	}{
		{"fabric.nodes", f.Nodes},
		{"fabric.mesh_w", f.MeshW},
		{"fabric.mesh_h", f.MeshH},
		{"fabric.tree_fanout", f.TreeFanout},
		{"fabric.flit_bytes", f.FlitBytes},
		{"fabric.buf_depth", f.BufDepth},
		{"fabric.max_pending_pkts", f.MaxPendingPkts},
	} {
		if c.v < 0 {
			return errf(c.field, "%d is negative", c.v)
		}
	}
	if f.Nodes > maxNodes {
		return errf("fabric.nodes", "%d exceeds %d, the most 16-bit node IDs can number", f.Nodes, maxNodes)
	}
	if (f.MeshW == 0) != (f.MeshH == 0) {
		return errf("fabric.mesh_w", "mesh_w and mesh_h must be set together (or both omitted for a square)")
	}
	return nil
}

// maxNodes bounds fabric.nodes: a packet run numbers its nodes from 1
// in a 16-bit noctypes.NodeID, whose all-ones value means no node.
const maxNodes = int(noctypes.NodeInvalid) - 1

// axiMaxBytes bounds an axi master role's bytes: one transaction is one
// AXI burst of the SoC's 4-byte AXI socket.
const axiMaxBytes = axi.MaxBeats * 4

// burstMaxBytes bounds the bytes of every other role whose transaction
// is one burst of its 4-byte socket: the master NIU carries the burst in
// one core.Request, whose 16-bit Len counts at most 65,535 beats. A pvci
// role issues one beat, and a prop stream crosses as short bursts, so
// neither reaches the bound.
const burstMaxBytes = math.MaxUint16 * 4

func (s *Scenario) validatePacket() error {
	w := s.Workload
	if len(w.Masters) > 0 || w.Wishbone || w.Hotspot || w.RequestsPerMaster != 0 {
		return errf("workload.masters", "soc-only fields set on a %q workload (masters/wishbone/hotspot/requests_per_master)", KindPacket)
	}
	nodes := s.Fabric.Nodes
	if nodes == 0 {
		nodes = 16
	}
	if nodes < 2 {
		return errf("fabric.nodes", "need at least 2 nodes, got %d", nodes)
	}
	if s.Fabric.MeshW != 0 && s.Fabric.MeshW*s.Fabric.MeshH < nodes {
		return errf("fabric.mesh_w", "%dx%d grid cannot hold %d nodes", s.Fabric.MeshW, s.Fabric.MeshH, nodes)
	}
	if w.Pattern != "" {
		if _, err := traffic.ParsePattern(w.Pattern); err != nil {
			return errf("workload.pattern", "unknown pattern %q (want uniform|hotspot|transpose|bitcomp|neighbor|bursty)", w.Pattern)
		}
	}
	if w.Rate < 0 {
		return errf("workload.rate", "%g is negative", w.Rate)
	}
	if w.PayloadBytes < 0 {
		return errf("workload.payload_bytes", "%d is negative", w.PayloadBytes)
	}
	if w.ReadFrac != nil {
		if err := validFrac("workload.read_frac", *w.ReadFrac); err != nil {
			return err
		}
	}
	if err := validFrac("workload.hot_frac", w.HotFrac); err != nil {
		return err
	}
	if err := validFrac("workload.urgent_frac", w.UrgentFrac); err != nil {
		return err
	}
	if w.BurstLen < 0 {
		return errf("workload.burst_len", "%d is negative", w.BurstLen)
	}
	if w.Window < 0 {
		return errf("workload.window", "%d is negative", w.Window)
	}
	return nil
}

func (s *Scenario) validateSoC() error {
	w := s.Workload
	if w.Pattern != "" || w.Rate != 0 || w.PayloadBytes != 0 || w.ReadFrac != nil ||
		w.HotFrac != 0 || w.HotNode != 0 || w.BurstLen != 0 || w.UrgentFrac != 0 ||
		w.ClosedLoop || w.Window != 0 {
		return errf("workload.pattern", "packet-only fields set on a %q workload (pattern/rate/payload_bytes/read_frac/…)", KindSoC)
	}
	if len(w.Masters) == 0 {
		return errf("workload.masters", "a %q workload needs at least one master role", KindSoC)
	}
	if w.RequestsPerMaster < 0 {
		return errf("workload.requests_per_master", "%d is negative", w.RequestsPerMaster)
	}
	seen := map[string]int{}
	for i, m := range w.Masters {
		field := func(sub string) string { return fmt.Sprintf("workload.masters[%d].%s", i, sub) }
		if !knownProtocol(m.Protocol) {
			return errf(field("protocol"), "unknown protocol %q (want %s)", m.Protocol, strings.Join(protocols, "|"))
		}
		if j, dup := seen[m.Protocol]; dup {
			return errf(field("protocol"), "duplicate role for %q (already declared at workload.masters[%d])", m.Protocol, j)
		}
		seen[m.Protocol] = i
		if m.Protocol == "wb" && !w.Wishbone {
			return errf(field("protocol"), "the %q socket needs workload.wishbone: true", m.Protocol)
		}
		if m.Rate <= 0 {
			return errf(field("rate"), "%g must be > 0 (a zero-rate master offers no load; drop the role instead)", m.Rate)
		}
		if m.Rate > 1 {
			return errf(field("rate"), "%g exceeds 1 (rate is an issue probability per cycle)", m.Rate)
		}
		if m.Window < 0 {
			return errf(field("window"), "%d is negative", m.Window)
		}
		if m.Bytes < 0 {
			return errf(field("bytes"), "%d is negative", m.Bytes)
		}
		switch {
		case m.Protocol == "axi" && m.Bytes > axiMaxBytes:
			return errf(field("bytes"), "%d exceeds %d, the longest AXI burst (%d beats of 4 bytes)", m.Bytes, axiMaxBytes, axi.MaxBeats)
		case m.Protocol != "pvci" && m.Protocol != "prop" && m.Bytes > burstMaxBytes:
			return errf(field("bytes"), "%d exceeds %d, the longest burst one request carries (%d beats of 4 bytes)", m.Bytes, burstMaxBytes, math.MaxUint16)
		}
		if m.ReadFrac != nil {
			if err := validFrac(field("read_frac"), *m.ReadFrac); err != nil {
				return err
			}
		}
		if _, err := ParsePriority(m.Priority); err != nil {
			return errf(field("priority"), "%s", err)
		}
		if m.Target != nil {
			if err := s.validateTarget(field("target"), m); err != nil {
				return err
			}
		}
	}
	// Pairwise overlap check across explicit targets: two masters
	// striding the same bytes is almost always an aliasing accident
	// (double-buffer pipelines use adjacent windows).
	for i, a := range w.Masters {
		if a.Target == nil {
			continue
		}
		for j := i + 1; j < len(w.Masters); j++ {
			b := w.Masters[j]
			if b.Target != nil && a.Target.overlaps(*b.Target) {
				return errf(fmt.Sprintf("workload.masters[%d].target", j),
					"%s overlaps workload.masters[%d].target %s", *b.Target, i, *a.Target)
			}
		}
	}
	return nil
}

func (s *Scenario) validateTarget(field string, m MasterRole) error {
	t := *m.Target
	if t.Size == 0 {
		return errf(field+".size", "must be > 0")
	}
	bytes := m.Bytes
	if bytes == 0 {
		bytes = 16
	}
	stride := (uint64(bytes) + 63) / 64 * 64
	if uint64(t.Size)%64 != 0 || uint64(t.Size) < stride {
		return errf(field+".size", "0x%x must be a multiple of 64 and hold at least one %d-byte stride", uint64(t.Size), stride)
	}
	var names []string
	for _, m := range soc.Memories(s.Workload.Wishbone) {
		if t.inside(m.Base, soc.MemSize) {
			return nil
		}
		names = append(names, fmt.Sprintf("%s-mem [0x%x,+0x%x)", m.Socket, m.Base, uint64(soc.MemSize)))
	}
	return errf(field, "%s is not inside any mapped memory window (%s)", t, strings.Join(names, ", "))
}

func (s *Scenario) validateMeasure() error {
	m := s.Measure
	if m.Warmup != nil && *m.Warmup < 0 {
		return errf("measure.warmup", "%d is negative (use 0 for no warmup)", *m.Warmup)
	}
	if m.Measure < 0 {
		return errf("measure.measure", "%d is negative", m.Measure)
	}
	if m.Drain < 0 {
		return errf("measure.drain", "%d is negative", m.Drain)
	}
	if m.HeatmapBucket < 0 {
		return errf("measure.heatmap_bucket", "%d is negative", m.HeatmapBucket)
	}
	for i, r := range m.SweepRates {
		if r <= 0 {
			return errf(fmt.Sprintf("measure.sweep_rates[%d]", i), "%g must be > 0", r)
		}
	}
	if s.Workload.Kind == KindSoC && (len(m.SweepRates) > 0 || m.Campaign != nil) {
		return errf("measure.sweep_rates", "sweeps and campaigns apply to %q workloads only", KindPacket)
	}
	if len(m.SweepRates) > 0 && m.Campaign != nil {
		return errf("measure.campaign", "sweep_rates and campaign are mutually exclusive")
	}
	if c := m.Campaign; c != nil {
		for i, t := range c.Topologies {
			if _, err := transport.ParseTopology(t); err != nil {
				return errf(fmt.Sprintf("measure.campaign.topologies[%d]", i), "unknown topology %q", t)
			}
		}
		for i, p := range c.Patterns {
			if _, err := traffic.ParsePattern(p); err != nil {
				return errf(fmt.Sprintf("measure.campaign.patterns[%d]", i), "unknown pattern %q", p)
			}
		}
		for i, r := range c.Rates {
			if r <= 0 {
				return errf(fmt.Sprintf("measure.campaign.rates[%d]", i), "%g must be > 0", r)
			}
		}
		if c.Workers < 0 {
			return errf("measure.campaign.workers", "%d is negative", c.Workers)
		}
	}
	return nil
}

// firstOf returns the field and name of the first of base (a fabric or
// workload field) and the entries of a campaign axis that bad rejects,
// or empty strings when it rejects none.
func firstOf(baseField, base, axis string, names []string, bad func(string) bool) (field, name string) {
	if bad(base) {
		return baseField, base
	}
	for i, n := range names {
		if bad(n) {
			return fmt.Sprintf("%s[%d]", axis, i), n
		}
	}
	return "", ""
}

// validateAxes rejects settings that a topology or pattern cannot build
// with, whether the fabric and workload name it or a campaign axis
// does: the legacy-lock service on a ring or torus (the lock VC is
// their dateline escape lane), and a hotspot node outside the fabric.
// Validate has parsed every name it reads.
func (s *Scenario) validateAxes() error {
	var camp Campaign
	if s.Measure.Campaign != nil {
		camp = *s.Measure.Campaign
	}
	if s.Fabric.LegacyLock {
		field, name := firstOf("fabric.topology", s.Fabric.Topology, "measure.campaign.topologies", camp.Topologies,
			func(name string) bool {
				t, _ := transport.ParseTopology(name)
				return t == transport.Ring || t == transport.Torus
			})
		if field != "" {
			return errf("fabric.legacy_lock", "the legacy-lock service needs a fabric other than a ring or torus (%s is %s)", field, name)
		}
	}
	nodes := s.Fabric.Nodes
	if nodes == 0 {
		nodes = 16
	}
	if hot := s.Workload.HotNode; hot < 0 || hot >= nodes {
		field, _ := firstOf("workload.pattern", s.Workload.Pattern, "measure.campaign.patterns", camp.Patterns,
			func(name string) bool {
				p, err := traffic.ParsePattern(name)
				return err == nil && p == traffic.Hotspot
			})
		if field != "" {
			return errf("workload.hot_node", "%d outside [0,%d) (%s is hotspot)", hot, nodes, field)
		}
	}
	return nil
}
