package traffic

import (
	"fmt"
	"strings"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/transport"
)

// Pattern selects how sources choose destinations.
type Pattern uint8

// Patterns.
const (
	// UniformRandom sends each transaction to a uniformly random other
	// node — the canonical baseline pattern.
	UniformRandom Pattern = iota
	// Hotspot sends a configured fraction of traffic to one node and
	// the rest uniformly — models a shared memory controller.
	Hotspot
	// Transpose sends node (x,y) to node (y,x) — adversarial for XY
	// routing on meshes.
	Transpose
	// BitComplement sends node i to node ^i (within the largest
	// power-of-two population) — maximizes average hop distance.
	BitComplement
	// NearestNeighbor sends to a random adjacent mesh node (ring
	// successor on non-mesh fabrics) — minimal-distance traffic.
	NearestNeighbor
	// Bursty streams geometric-length bursts of back-to-back
	// transactions at a uniformly chosen destination.
	Bursty
)

var patternNames = map[Pattern]string{
	UniformRandom:   "uniform",
	Hotspot:         "hotspot",
	Transpose:       "transpose",
	BitComplement:   "bitcomp",
	NearestNeighbor: "neighbor",
	Bursty:          "bursty",
}

// String renders the pattern's CLI name.
func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pattern%d", uint8(p))
}

// ParsePattern resolves a CLI name to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for p, name := range patternNames {
		if name == strings.ToLower(strings.TrimSpace(s)) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown pattern %q (want uniform|hotspot|transpose|bitcomp|neighbor|bursty)", s)
}

// Topology selects the fabric shape for the packet-level engines; the
// names and the builders belong to internal/transport.
type Topology = transport.Topology

// Topologies. All five transport builders are reachable: topology is a
// transport-layer choice, so every pattern/rate configuration runs
// unchanged on any of them.
const (
	Crossbar = transport.Crossbar
	Mesh     = transport.Mesh
	Torus    = transport.Torus
	Ring     = transport.Ring
	Tree     = transport.Tree
)

// Config parameterizes one traffic run on a raw transport fabric.
type Config struct {
	Seed int64

	// Fabric.
	Nodes      int      // endpoint count (default 16)
	Topology   Topology // crossbar, mesh, torus, ring, or tree
	MeshW      int      // mesh/torus width (default: square from Nodes)
	MeshH      int      // mesh/torus height
	TreeFanout int      // tree: endpoints per leaf switch (default 4)
	Net        transport.NetConfig

	// Workload.
	Pattern      Pattern
	Rate         float64 // open-loop offered load, transactions/node/cycle (default 0.05)
	PayloadBytes int     // data bytes moved per transaction (default 32)
	ReadFrac     float64 // fraction of transactions that are reads (default 0.5; negative = all writes)
	HotFrac      float64 // Hotspot: fraction of traffic aimed at HotNode (default 0.5)
	HotNode      int     // Hotspot: destination node index (default 0)
	BurstLen     int     // Bursty: mean burst length (default 8)
	UrgentFrac   float64 // fraction of transactions injected at PrioUrgent (default 0)

	// Closed loop.
	ClosedLoop bool
	Window     int // outstanding transactions per source (default 4)

	// Phases, in fabric cycles.
	Warmup  int64 // inject, don't record (default 1000; negative = none)
	Measure int64 // inject and record (default 4000)
	Drain   int64 // stop generating; cap on finishing measured txns (default 30000)

	// Probe, when non-nil, is attached to the fabric before the run
	// (transport.Network.SetProbe) and observes the whole run including
	// warmup and drain. A probe belongs to one simulation kernel:
	// sharing one instance across concurrently running points is a data
	// race, which is why Campaign strips it from its per-point configs
	// and builds per-point monitors instead (HeatmapBuckets).
	Probe obs.Probe `json:"-"`

	// Metrics is the session's live-metrics rig; the zero Rig turns
	// metrics off. The run advances its clock through the rig's
	// profile, which publishes cycles and phases as it goes,
	// counts injection backpressure on its registry and attaches its
	// fabric collector next to Probe; Sweep and Campaign report their
	// points on its progress tracker. The profile, registry and tracker
	// feed atomics, so a campaign shares them across its workers
	// (totals aggregate across concurrent points); the collector is a
	// probe, which the campaign strips from its points like Probe.
	Metrics metrics.Rig `json:"-"`

	// CollectWall populates Result.Wall with wall-clock phase timings.
	// It is opt-in because wall clock is the one measurement that can't
	// be deterministic: the repo's byte-identical-output convention
	// (and the tests enforcing it) applies to everything else, so
	// library callers default to off and the CLIs switch it on.
	CollectWall bool `json:"-"`
}

// ackBytes is the payload of the non-data direction (a write ack or a
// read request): header metadata only.
const ackBytes = 8

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if (c.Topology == Mesh || c.Topology == Torus) && (c.MeshW == 0 || c.MeshH == 0) {
		w := 1
		for (w+1)*(w+1) <= c.Nodes {
			w++
		}
		c.MeshW = w
		c.MeshH = (c.Nodes + w - 1) / w
	}
	if c.TreeFanout == 0 {
		c.TreeFanout = 4
	}
	if c.Rate == 0 {
		c.Rate = 0.05
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 32
	}
	switch {
	case c.ReadFrac == 0:
		c.ReadFrac = 0.5
	case c.ReadFrac < 0:
		c.ReadFrac = 0
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.5
	}
	if c.BurstLen == 0 {
		c.BurstLen = 8
	}
	if c.Window == 0 {
		c.Window = 4
	}
	switch {
	case c.Warmup == 0:
		c.Warmup = 1000
	case c.Warmup < 0:
		c.Warmup = 0
	}
	if c.Measure == 0 {
		c.Measure = 4000
	}
	if c.Drain == 0 {
		c.Drain = 30000
	}
	c.Net = c.Net.WithDefaults()
	// Lanes that buffer whole packets must hold the largest packet this
	// workload produces; size them rather than panicking deep inside
	// transport. The non-data leg carries ackBytes, which is the larger
	// payload when PayloadBytes is tiny.
	if need := transport.WholePacketDepth(c.Topology, c.Net, max(c.PayloadBytes, ackBytes)); c.Net.BufDepth < need {
		c.Net.BufDepth = need
	}
	return c
}
