package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Version is the scenario-file schema version this build reads and
// writes. Loaders reject any other value, so a future incompatible
// schema can bump it without silently misreading old files.
const Version = 1

// Scenario is one declarative experiment composition: a fabric, a
// workload on it, and how to measure the run. It is the unit the JSON
// scenario files (docs/SCENARIOS.md) serialize, the registry names, and
// the resolver (lower.go) lowers onto the soc/traffic/obs APIs.
//
// The zero value of every optional field means "use the library
// default" — with two documented exceptions where zero is a meaningful
// value distinct from the default, which are pointers so that JSON can
// tell "omitted" from "0": read_frac (0 = all writes) and warmup
// (0 = no warmup phase).
type Scenario struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed,omitempty"` // root RNG seed (default 1)

	Fabric   Fabric   `json:"fabric"`
	Workload Workload `json:"workload"`
	Measure  Measure  `json:"measure,omitempty"`
}

// Fabric declares the interconnect: topology plus the transport-layer
// knobs (switching mode, QoS arbitration, flit width, buffer depth).
type Fabric struct {
	Topology string `json:"topology"` // crossbar | mesh | torus | ring | tree

	// Nodes is the endpoint count for packet workloads (default 16).
	// SoC workloads ignore it: their node set is the composition itself.
	Nodes int `json:"nodes,omitempty"`

	MeshW      int `json:"mesh_w,omitempty"`      // mesh/torus width (default: square from nodes)
	MeshH      int `json:"mesh_h,omitempty"`      // mesh/torus height
	TreeFanout int `json:"tree_fanout,omitempty"` // tree: endpoints per leaf switch (default 4)

	Mode           string `json:"mode,omitempty"`             // wormhole (default) | saf
	QoS            bool   `json:"qos,omitempty"`              // priority arbitration in switches
	FlitBytes      int    `json:"flit_bytes,omitempty"`       // flit payload width (default 8)
	BufDepth       int    `json:"buf_depth,omitempty"`        // per-lane buffer depth in flits (default 8, soc.LaneDepth on a SoC; auto-raised for SAF/ring/torus)
	MaxPendingPkts int    `json:"max_pending_pkts,omitempty"` // per-endpoint send queue in packets (default 4)
	LegacyLock     bool   `json:"legacy_lock,omitempty"`      // enable the global legacy-lock token

	// Fidelity selects the execution mode: "cycle" (default) simulates
	// every flit; "hybrid" prices packets analytically on cool links and
	// falls back per-link when utilization crosses a fixed threshold.
	// See docs/PERFORMANCE.md, "Fidelity levels".
	Fidelity string `json:"fidelity,omitempty"` // cycle (default) | hybrid
}

// Workload kinds.
const (
	// KindPacket drives a raw transport fabric with one of the
	// synthetic patterns (traffic.Run/Sweep/Campaign).
	KindPacket = "packet"
	// KindSoC builds the full mixed-protocol SoC and drives the listed
	// masters through their NIUs (traffic.RunTrans); cmd/nocsim can
	// also build its generator workload from the same scenario.
	KindSoC = "soc"
)

// Workload declares what load is offered. Kind selects which field
// group applies; fields of the other group must stay unset.
type Workload struct {
	Kind string `json:"kind"` // packet | soc

	// Packet workloads (kind "packet").
	Pattern      string   `json:"pattern,omitempty"`       // uniform (default) | hotspot | transpose | bitcomp | neighbor | bursty
	Rate         float64  `json:"rate,omitempty"`          // offered load, txn/node/cycle (default 0.05)
	PayloadBytes int      `json:"payload_bytes,omitempty"` // data bytes per transaction (default 32)
	ReadFrac     *float64 `json:"read_frac,omitempty"`     // fraction of reads (default 0.5; 0 = all writes)
	HotFrac      float64  `json:"hot_frac,omitempty"`      // hotspot: fraction aimed at hot_node (default 0.5)
	HotNode      int      `json:"hot_node,omitempty"`      // hotspot: destination node index
	BurstLen     int      `json:"burst_len,omitempty"`     // bursty: mean burst length (default 8)
	UrgentFrac   float64  `json:"urgent_frac,omitempty"`   // fraction injected at urgent priority
	ClosedLoop   bool     `json:"closed_loop,omitempty"`   // fixed-window injection instead of open loop
	Window       int      `json:"window,omitempty"`        // closed loop: outstanding per source (default 4)

	// SoC workloads (kind "soc").
	Masters           []MasterRole `json:"masters,omitempty"`             // driven sockets, one role each
	Wishbone          bool         `json:"wishbone,omitempty"`            // include the WISHBONE socket + memory in the build
	Hotspot           bool         `json:"hotspot,omitempty"`             // default-target masters all hammer the AXI memory
	RequestsPerMaster int          `json:"requests_per_master,omitempty"` // nocsim generator workload size (default 40)
}

// MasterRole is one SoC master's traffic role: which socket, how hard
// to drive it, what it reads/writes, at which priority, and where.
type MasterRole struct {
	Protocol string `json:"protocol"` // axi | ocp | ahb | pvci | bvci | avci | prop | wb

	Rate     float64  `json:"rate"`                // issue probability per cycle; required > 0
	Window   int      `json:"window,omitempty"`    // max outstanding (default 2)
	Bytes    int      `json:"bytes,omitempty"`     // bytes per transaction — the burst shape (default 16)
	ReadFrac *float64 `json:"read_frac,omitempty"` // fraction of reads (default 0.5; 0 = all writes)
	Priority string   `json:"priority,omitempty"`  // low | default | high | urgent (NIU injection priority)

	// Target pins the master's requests to an address window inside one
	// mapped memory. Omitted, the master walks the historical rotating
	// lanes across all memories (or the AXI memory under hotspot).
	Target *AddrRange `json:"target,omitempty"`
}

// AddrRange is a [Base, Base+Size) address window. Both fields accept
// hex strings ("0x1004_0000") or plain JSON numbers and marshal as hex.
type AddrRange struct {
	Base Addr `json:"base"`
	Size Addr `json:"size"`
}

// Contains reports whether r lies fully inside [base, base+size).
func (r AddrRange) inside(base, size uint64) bool {
	end := uint64(r.Base) + uint64(r.Size)
	return uint64(r.Base) >= base && end >= uint64(r.Base) && end <= base+size
}

// overlaps reports whether two windows intersect.
func (r AddrRange) overlaps(o AddrRange) bool {
	return uint64(r.Base) < uint64(o.Base)+uint64(o.Size) &&
		uint64(o.Base) < uint64(r.Base)+uint64(r.Size)
}

func (r AddrRange) String() string {
	return fmt.Sprintf("[0x%x,+0x%x)", uint64(r.Base), uint64(r.Size))
}

// Addr is a uint64 that reads from JSON as either a number or a hex
// string ("0x5000_0000"; underscores allowed) and writes as a hex
// string — addresses in decimal are unreadable and error-prone.
type Addr uint64

// MarshalJSON renders the address as "0x…".
func (a Addr) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", "0x"+strconv.FormatUint(uint64(a), 16))), nil
}

// UnmarshalJSON accepts a JSON number or a (possibly 0x-prefixed,
// underscore-separated) string.
func (a *Addr) UnmarshalJSON(b []byte) error {
	s := string(b)
	if strings.HasPrefix(s, "\"") {
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		s = strings.ReplaceAll(strings.TrimSpace(s), "_", "")
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return fmt.Errorf("bad address %q (want \"0x…\" or a number)", string(b))
		}
		*a = Addr(v)
		return nil
	}
	var v uint64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("bad address %s (want \"0x…\" or a non-negative number)", s)
	}
	*a = Addr(v)
	return nil
}

// Measure declares the measurement protocol: phases, and whether the
// scenario is a single run, a rate sweep, or a parallel campaign.
type Measure struct {
	Warmup  *int64 `json:"warmup,omitempty"`  // cycles injected unrecorded (default 1000 packet / 500 soc; 0 = none)
	Measure int64  `json:"measure,omitempty"` // recorded cycles (default 4000)
	Drain   int64  `json:"drain,omitempty"`   // cap on cycles finishing measured txns (default 30000)

	// SweepRates, when non-empty, walks the listed offered loads and
	// reports the latency-vs-load curve (packet workloads only;
	// mutually exclusive with Campaign).
	SweepRates []float64 `json:"sweep_rates,omitempty"`

	// Campaign, when present, fans a (topology × pattern × rate)
	// product across a worker pool (packet workloads only).
	Campaign *Campaign `json:"campaign,omitempty"`

	// HeatmapBucket is the congestion-heatmap time-bucket width in
	// cycles used when a heatmap sink is attached (0 = the obs default;
	// campaigns collect one heatmap per point).
	HeatmapBucket int64 `json:"heatmap_bucket,omitempty"`
}

// Campaign declares the swept axes of a campaign scenario. Empty lists
// default to the scenario's own fabric topology / workload pattern /
// the built-in rate schedule.
type Campaign struct {
	Topologies []string  `json:"topologies,omitempty"`
	Patterns   []string  `json:"patterns,omitempty"`
	Rates      []float64 `json:"rates,omitempty"`
	Workers    int       `json:"workers,omitempty"` // worker-pool size (0 = GOMAXPROCS; does not affect results)
}

// Mode names how a scenario runs, derived from its measure section.
type Mode string

// Run modes.
const (
	ModeSingle   Mode = "single"   // one packet-level run
	ModeSweep    Mode = "sweep"    // latency-vs-offered-load curve
	ModeCampaign Mode = "campaign" // parallel (topology × pattern × rate) product
	ModeTrans    Mode = "trans"    // transaction-level load through the SoC's NIUs
)

// Mode returns how the scenario runs. Only meaningful on a validated
// scenario.
func (s *Scenario) Mode() Mode {
	if s.Workload.Kind == KindSoC {
		return ModeTrans
	}
	switch {
	case s.Measure.Campaign != nil:
		return ModeCampaign
	case len(s.Measure.SweepRates) > 0:
		return ModeSweep
	}
	return ModeSingle
}

// Clone returns an independent deep copy, so registry entries can be
// handed out for mutation (CLI flag overrides) without aliasing.
func (s *Scenario) Clone() *Scenario {
	c := *s
	if s.Workload.ReadFrac != nil {
		v := *s.Workload.ReadFrac
		c.Workload.ReadFrac = &v
	}
	if s.Workload.Masters != nil {
		c.Workload.Masters = append([]MasterRole(nil), s.Workload.Masters...)
		for i, m := range s.Workload.Masters {
			if m.ReadFrac != nil {
				v := *m.ReadFrac
				c.Workload.Masters[i].ReadFrac = &v
			}
			if m.Target != nil {
				t := *m.Target
				c.Workload.Masters[i].Target = &t
			}
		}
	}
	if s.Measure.Warmup != nil {
		v := *s.Measure.Warmup
		c.Measure.Warmup = &v
	}
	if s.Measure.SweepRates != nil {
		c.Measure.SweepRates = append([]float64(nil), s.Measure.SweepRates...)
	}
	if s.Measure.Campaign != nil {
		cc := *s.Measure.Campaign
		cc.Topologies = append([]string(nil), s.Measure.Campaign.Topologies...)
		cc.Patterns = append([]string(nil), s.Measure.Campaign.Patterns...)
		cc.Rates = append([]float64(nil), s.Measure.Campaign.Rates...)
		c.Measure.Campaign = &cc
	}
	return &c
}
