package metrics

import (
	"strconv"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
)

// FabricCollector is an obs.Probe that folds the fabric's event stream
// into live registry counters: per-router flit and stall totals,
// packet lifecycle totals (queued/injected/ejected), and per-node NIU
// transaction counters (issued/completed/outstanding, slave
// admitted/responded). Like every probe it observes one kernel at a
// time — do not share one collector between concurrently running
// simulations — but the counters it feeds are atomics, so a concurrent
// /metrics scrape is safe.
//
// A disabled collector is a nil *FabricCollector; note that a nil
// *FabricCollector stored in an obs.Probe interface is NOT a nil
// interface, so callers must only attach it when non-nil (the same
// typed-nil hazard obs.Multi documents).
type FabricCollector struct {
	reg *Registry

	queued   *Counter
	injected *Counter
	ejected  *Counter

	// Per-router counters, indexed by obs.Event.Router. Grown lazily on
	// the simulation goroutine (single-threaded per the probe contract);
	// only the atomic counters inside are shared with scrapers.
	flits  []*Counter
	stalls []*Counter
	names  []string

	nius map[noctypes.NodeID]*niuCounters
}

// niuCounters is the per-node transaction instrumentation.
type niuCounters struct {
	issued      *Counter
	completed   *Counter
	outstanding *Gauge
	slaveRecv   *Counter
	slaveResp   *Counter
}

// NewFabricCollector returns a collector registering on reg, or nil
// when reg is nil (disabled).
func NewFabricCollector(reg *Registry) *FabricCollector {
	if reg == nil {
		return nil
	}
	return &FabricCollector{
		reg:      reg,
		queued:   reg.Counter("noc_fabric_pkts_queued_total", "packets accepted and packetized by endpoints"),
		injected: reg.Counter("noc_fabric_pkts_injected_total", "packets whose head flit entered the fabric"),
		ejected:  reg.Counter("noc_fabric_pkts_ejected_total", "packets fully reassembled at their destination"),
		nius:     make(map[noctypes.NodeID]*niuCounters),
	}
}

// NameRouters implements obs.RouterNamer: per-router counters get the
// fabric's own router names as their label.
func (c *FabricCollector) NameRouters(names []string) {
	if c == nil {
		return
	}
	c.names = names
	for i := range names {
		c.router(i)
	}
}

func (c *FabricCollector) routerName(i int) string {
	if i < len(c.names) && c.names[i] != "" {
		return c.names[i]
	}
	return "r" + strconv.Itoa(i)
}

// router returns the flit counter for router index i, creating the
// per-router pair on first sight.
func (c *FabricCollector) router(i int) *Counter {
	for len(c.flits) <= i {
		j := len(c.flits)
		lbl := L("router", c.routerName(j))
		c.flits = append(c.flits, c.reg.Counter("noc_fabric_flits_total",
			"flits forwarded per switch output stage", lbl))
		c.stalls = append(c.stalls, c.reg.Counter("noc_fabric_stalls_total",
			"cycles a held switch output moved no flit", lbl))
	}
	return c.flits[i]
}

func (c *FabricCollector) niu(node noctypes.NodeID) *niuCounters {
	n, ok := c.nius[node]
	if !ok {
		lbl := L("node", strconv.Itoa(int(node)))
		n = &niuCounters{
			issued:      c.reg.Counter("noc_niu_txn_issued_total", "transactions issued by master NIUs", lbl),
			completed:   c.reg.Counter("noc_niu_txn_completed_total", "transactions retired by master NIUs", lbl),
			outstanding: c.reg.Gauge("noc_niu_txn_outstanding", "transactions in flight per master NIU", lbl),
			slaveRecv:   c.reg.Counter("noc_niu_slave_admitted_total", "requests admitted by slave NIUs", lbl),
			slaveResp:   c.reg.Counter("noc_niu_slave_responded_total", "responses queued by slave NIUs", lbl),
		}
		c.nius[node] = n
	}
	return n
}

// SamplesBuffers implements obs.BufferSampler: no counter reads buffer
// occupancy, so the fabric need not emit samples (nor stay awake to).
func (c *FabricCollector) SamplesBuffers() bool { return false }

// Event implements obs.Probe.
func (c *FabricCollector) Event(ev obs.Event) {
	switch ev.Kind {
	case obs.KindFlit:
		c.router(ev.Router).Inc()
	case obs.KindStall:
		c.router(ev.Router)
		c.stalls[ev.Router].Inc()
	case obs.KindQueued:
		c.queued.Inc()
	case obs.KindInject:
		c.injected.Inc()
	case obs.KindEject:
		c.ejected.Inc()
	case obs.KindTxnIssue:
		n := c.niu(ev.Src)
		n.issued.Inc()
		n.outstanding.Add(1)
	case obs.KindTxnComplete:
		n := c.niu(ev.Src)
		n.completed.Inc()
		n.outstanding.Add(-1)
	case obs.KindSlaveRecv:
		c.niu(ev.Src).slaveRecv.Inc()
	case obs.KindSlaveResp:
		c.niu(ev.Src).slaveResp.Inc()
	}
}
