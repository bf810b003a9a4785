package traffic

import (
	"fmt"
	"sort"

	"gonoc/internal/ip"
	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

// TransRole configures one master's traffic role in a transaction-level
// run. Zero fields inherit the run-wide defaults from TransConfig
// (Rate, Window, Bytes, ReadFrac), so a role list that only names
// sockets reproduces the uniform historical workload exactly.
type TransRole struct {
	Master string // socket name: axi, ocp, ahb, pvci, bvci, avci, prop, or wb

	Rate     float64 // issue probability per cycle (0 = TransConfig.Rate)
	Window   int     // max outstanding (0 = TransConfig.Window)
	Bytes    int     // bytes per transaction (0 = TransConfig.Bytes)
	ReadFrac float64 // fraction of reads (0 = TransConfig.ReadFrac; negative = all writes)

	// Priority, when PrioritySet, overrides the master NIU's injection
	// priority (soc.Config.MasterPriority); otherwise the NIU keeps
	// noctypes.PrioDefault. The two-field form keeps the zero value of
	// TransRole meaningful (PrioLow is 0 and must stay expressible).
	Priority    noctypes.Priority
	PrioritySet bool

	// Base/Size, when Size != 0, pin this master's requests to the
	// address window [Base, Base+Size): strided at the transaction size
	// rounded up to 64 bytes, wrapping within the window. Size must be a
	// multiple of 64 and hold at least one stride. When Size == 0 the
	// master uses the historical rotating-lane scheme (a private lane
	// per master, rotating across the mapped memories, or pinned to the
	// AXI memory under TransConfig.Hotspot).
	Base uint64
	Size uint64
}

// TransConfig parameterizes a transaction-level load run: the full
// mixed-protocol SoC is built (Fig-1 NoC), and protocol masters are
// driven through their existing NIUs by rate-controlled Socket.Issue — open
// loop in arrival (Bernoulli at Rate), bounded by Window outstanding.
//
// With Roles empty every master in the build is driven with the uniform
// run-wide knobs (the historical workload). A non-empty Roles list
// drives exactly the named sockets, each with its own rate, window,
// transaction size, read mix, NIU priority, and target address window —
// the hook the scenario layer (internal/scenario) lowers declarative
// compositions onto.
type TransConfig struct {
	Seed     int64
	Topology soc.Topology
	Rate     float64 // issue probability per master per cycle (default 0.2)
	Window   int     // max outstanding per master (default 2)
	Bytes    int     // bytes per transaction (default 16)
	ReadFrac float64 // fraction of reads (default 0.5; negative = all writes)
	Hotspot  bool    // true: all masters hammer the AXI memory; false: spread over the memories
	Wishbone bool    // add the Wishbone master (and its memory) to the driven SoC

	// Net forwards fabric knobs (switching mode, QoS, flit width,
	// buffer depth) to the SoC build; the zero value keeps the
	// historical soc defaults.
	Net transport.NetConfig

	// Roles, when non-empty, selects and parameterizes the driven
	// masters individually; see TransRole. A role naming "wb" implies
	// Wishbone.
	Roles []TransRole

	Warmup  int64 // default 500; negative = none
	Measure int64 // default 4000
	Drain   int64 // default 30000

	// Probe, when non-nil, instruments the SoC's fabric and NIUs for
	// the whole run (same contract as Config.Probe).
	Probe obs.Probe `json:"-"`

	// Metrics is the session's live-metrics rig (same contract as
	// Config.Metrics; a trans run has no backpressure counter).
	Metrics metrics.Rig `json:"-"`

	// CollectWall populates TransResult.Wall (same opt-in rationale as
	// Config.CollectWall).
	CollectWall bool `json:"-"`
}

func (c TransConfig) withDefaults() TransConfig {
	if c.Rate == 0 {
		c.Rate = 0.2
	}
	if c.Window == 0 {
		c.Window = 2
	}
	if c.Bytes == 0 {
		c.Bytes = 16
	}
	switch {
	case c.ReadFrac == 0:
		c.ReadFrac = 0.5
	case c.ReadFrac < 0:
		c.ReadFrac = 0
	}
	switch {
	case c.Warmup == 0:
		c.Warmup = 500
	case c.Warmup < 0:
		c.Warmup = 0
	}
	if c.Measure == 0 {
		c.Measure = 4000
	}
	if c.Drain == 0 {
		c.Drain = 30000
	}
	return c
}

// TransMaster is one master's digest from a transaction-level run.
type TransMaster struct {
	Master  string               `json:"master"`
	Issued  int                  `json:"issued"`
	Done    int                  `json:"done"`
	Errors  int                  `json:"errors"`
	Latency stats.LatencySummary `json:"latency"`
}

// TransResult digests a transaction-level load run.
type TransResult struct {
	Hotspot    bool          `json:"hotspot"`
	Rate       float64       `json:"rate"`
	PerMaster  []TransMaster `json:"per_master"`
	Throughput float64       `json:"tput_per_kcycle"` // completions/kcycle, all masters, measure window
	Incomplete int           `json:"incomplete"`

	// Wall is the run's wall-clock self-profile; present only when
	// TransConfig.CollectWall was set.
	Wall *WallStats `json:"wall,omitempty"`
}

// reqWireOverhead bounds the encoded request/response metadata a NIU
// wraps around a transaction's data beats (address, command, burst
// vocabulary, beat-count rounding) — 32 bytes comfortably covers every
// socket's encoding and costs at most a few spare flits of buffer.
const reqWireOverhead = 32

// resolveRoles normalizes a defaulted TransConfig into the concrete role
// list RunTrans drives: explicit Roles with inherited fields filled, or
// the synthesized uniform role per built master, in soc.Masters order,
// when Roles is empty ("wb" last, so the seven-master seeds are
// undisturbed). The synthesized list is what the historical uniform code
// path drove, so both forms execute identically.
func resolveRoles(tc TransConfig) []TransRole {
	roles := tc.Roles
	if len(roles) == 0 {
		names := soc.Masters(tc.Wishbone)
		roles = make([]TransRole, len(names))
		for i, n := range names {
			roles[i] = TransRole{Master: n}
		}
	} else {
		roles = append([]TransRole(nil), roles...)
	}
	for i := range roles {
		r := &roles[i]
		if r.Rate == 0 {
			r.Rate = tc.Rate
		}
		if r.Window == 0 {
			r.Window = tc.Window
		}
		if r.Bytes == 0 {
			r.Bytes = tc.Bytes
		}
		switch {
		case r.ReadFrac == 0:
			r.ReadFrac = tc.ReadFrac
		case r.ReadFrac < 0:
			r.ReadFrac = 0
		}
	}
	return roles
}

// RunTrans drives the mixed SoC through its NIUs and measures
// transaction latency per master. It panics on malformed role lists
// (unknown socket, duplicate socket, bad target window) — the scenario
// layer validates these with field-level errors before lowering here.
func RunTrans(tc TransConfig) TransResult { return runTrans(tc, nil) }

// runTrans is RunTrans with a hook: built, when non-nil, sees the SoC
// after it is built and before it runs. The differential tests use it
// to select the clock's reference mode and to read the SoC's stats.
func runTrans(tc TransConfig, built func(*soc.System)) TransResult {
	tc = tc.withDefaults()
	roles := resolveRoles(tc)
	wishbone := tc.Wishbone
	prios := map[string]noctypes.Priority{}
	seen := map[string]bool{}
	for _, r := range roles {
		if seen[r.Master] {
			panic(fmt.Sprintf("traffic: duplicate trans role for master %q", r.Master))
		}
		seen[r.Master] = true
		if r.Master == "wb" {
			wishbone = true
		}
		if r.PrioritySet {
			prios[r.Master] = r.Priority
		}
	}
	if len(prios) == 0 {
		prios = nil
	}
	// Lanes that buffer whole packets must hold the largest packet any
	// role produces (the rule Config.withDefaults applies on the packet
	// path). The NIU wire format adds a bounded request/response header
	// on top of the data beats; reqWireOverhead over-reserves a little
	// rather than panicking deep inside transport.
	maxBytes := 0
	for _, r := range roles {
		maxBytes = max(maxBytes, r.Bytes)
	}
	eff := tc.Net.BufDepth
	if eff == 0 {
		eff = soc.LaneDepth(tc.Net)
	}
	if need := transport.WholePacketDepth(tc.Topology, tc.Net, reqWireOverhead+maxBytes); need > eff {
		tc.Net.BufDepth = need
	}
	s := soc.BuildNoC(soc.Config{Seed: tc.Seed, Quiet: true, Topology: tc.Topology,
		Wishbone: wishbone, Probe: obs.Multi(tc.Probe, tc.Metrics.Probe()), Net: tc.Net, MasterPriority: prios})
	if built != nil {
		built(s)
	}
	socks := s.Sockets()
	var bases []uint64
	for _, m := range soc.Memories(wishbone) {
		bases = append(bases, m.Base)
	}

	run := &transRun{clk: s.Clk, hotspot: tc.Hotspot, bases: bases, genEnd: s.Clk.Cycle() + tc.Warmup + tc.Measure}
	states := make([]*mstate, 0, len(roles))
	for i, role := range roles {
		sock, ok := socks[role.Master]
		if !ok {
			panic(fmt.Sprintf("traffic: unknown trans master %q", role.Master))
		}
		// Default addressing: each master owns a private 16 KiB lane
		// inside each memory so bursts stay window-local without
		// aliasing another master's. An explicit role target replaces
		// the lane with a stride walk of [Base, Base+Size).
		st := &mstate{run: run, role: role, sock: sock, rng: sim.NewRNG(sim.ForkSeed(tc.Seed, "trans."+role.Master)),
			lane: uint64(0x60000 + i*0x4000)}
		if role.Size != 0 {
			st.stride = (uint64(role.Bytes) + 63) / 64 * 64
			if st.stride == 0 {
				st.stride = 64
			}
			st.slots = role.Size / st.stride
			if st.slots == 0 || role.Size%64 != 0 {
				panic(fmt.Sprintf("traffic: trans role %q target size %#x cannot hold a %d-byte stride (want a multiple of 64 >= the transaction size)",
					role.Master, role.Size, st.stride))
			}
		}
		st.w = s.Clk.Register(st)
		states = append(states, st)
	}

	outstanding := func() int {
		total := 0
		for _, st := range states {
			total += st.inflight
		}
		return total
	}
	wall := runPhases(s.Clk, tc.Metrics.Profile, &run.measuring, tc.Warmup, tc.Measure, tc.Drain,
		func() bool { return outstanding() > 0 }, tc.CollectWall)

	// The report's headline rate is the rate every role shares; a mixed
	// role list reports 0 (the table then says "per-role rates"). The
	// uniform legacy path always shares tc.Rate, so its reports are
	// unchanged.
	res := TransResult{Hotspot: tc.Hotspot, Rate: roles[0].Rate}
	for _, r := range roles[1:] {
		if r.Rate != res.Rate {
			res.Rate = 0
			break
		}
	}
	for _, st := range states {
		res.PerMaster = append(res.PerMaster, TransMaster{
			Master: st.role.Master, Issued: st.issued, Done: st.done, Errors: st.errs,
			Latency: st.lat.Summary(),
		})
	}
	sort.Slice(res.PerMaster, func(i, j int) bool { return res.PerMaster[i].Master < res.PerMaster[j].Master })
	res.Throughput = float64(run.cmplMeas) * 1000 / float64(tc.Measure)
	res.Incomplete = outstanding()
	res.Wall = wall
	return res
}

// transRun is the state a RunTrans run's issuers share.
type transRun struct {
	clk       *sim.Clock
	hotspot   bool
	bases     []uint64 // the memories the default lanes rotate over
	genEnd    int64    // the last generating cycle: the end of measurement
	measuring bool
	cmplMeas  int // completions while measuring, every master
}

// mstate is one master's issuer: on the run's generating cycles it
// issues a transaction through its socket with probability Rate per
// cycle, while fewer than Window are in flight.
//
// It sleeps between issues (sim.Idler). While the window has room it
// makes its Bool(Rate) draws ahead, in cycle order, up to the next
// success, and arms a WakeAt for that cycle; with the window full it
// draws nothing, and the completion that frees a slot wakes it. These
// are the draws a per-cycle issuer makes, in the same order on the same
// stream, so every seeded result stays the same.
type mstate struct {
	run  *transRun
	role TransRole
	sock ip.Socket
	rng  *sim.RNG
	w    sim.Waker

	lane, stride, slots uint64 // addressing: the default lane, or the role's window

	drawer // the Bool(Rate) draws, made ahead up to the next success

	inflight, k, issued, done, errs int
	lat                             stats.Latency
	free                            []*transCall
}

// transCall is one transaction in flight: its issue cycle and whether
// it was issued while measuring. Its completion is bound once, when it
// is made, and it returns to its master's free list.
type transCall struct {
	m        *mstate
	start    int64
	measured bool
	done     ip.Done
}

// Eval implements sim.Clocked: issue the transaction drawn for this
// cycle, and draw ahead while the window has room.
func (m *mstate) Eval(cycle int64) {
	if m.due == 0 && m.inflight < m.role.Window {
		m.drawAhead(cycle)
	}
	if m.due != cycle {
		return
	}
	m.issue(cycle)
	m.due = 0
	if m.inflight < m.role.Window {
		m.drawAhead(cycle + 1)
	}
}

// Idle implements sim.Idler. After an Eval the issuer has nothing to do
// before its drawn cycle, which it armed, or a completion, which wakes
// it.
func (m *mstate) Idle() bool { return true }

// drawAhead makes the draws of the cycles from from on, past any
// already drawn, up to the next success or genEnd.
func (m *mstate) drawAhead(from int64) { m.draw(m.rng, m.role.Rate, from, m.run.genEnd, m.w) }

// issue starts one transaction: the read/write draw right after the
// successful rate draw, then the next address of the master's walk.
func (m *mstate) issue(cycle int64) {
	var addr uint64
	if m.role.Size != 0 {
		addr = m.role.Base + uint64(m.k)%m.slots*m.stride
	} else {
		var base uint64 = soc.BaseAXIMem
		if !m.run.hotspot {
			base = m.run.bases[m.k%len(m.run.bases)]
		}
		addr = base + m.lane + uint64((m.k*64)%0x4000)
	}
	write := !m.rng.Bool(m.role.ReadFrac)
	m.k++
	m.issued++
	m.inflight++
	var c *transCall
	if n := len(m.free); n > 0 {
		c, m.free = m.free[n-1], m.free[:n-1]
	} else {
		c = &transCall{m: m}
		c.done = c.complete
	}
	c.start, c.measured = cycle, m.run.measuring
	m.sock.Issue(m.k-1, write, addr, m.role.Bytes, c.done)
}

// complete is a transaction's completion: it records the latency of a
// measured one, returns the call to the free list and wakes the issuer,
// whose window now has room.
func (c *transCall) complete(_ []byte, err bool) {
	m := c.m
	start, measured := c.start, c.measured
	m.free = append(m.free, c)
	m.inflight--
	m.done++
	if err {
		m.errs++
	}
	if m.run.measuring {
		m.run.cmplMeas++
	}
	if measured {
		m.lat.Record(m.run.clk.Cycle() - start)
	}
	m.w.Wake()
}

// Table renders the per-master digests as a text table.
func (tr TransResult) Table() *stats.Table {
	mode := "spread"
	if tr.Hotspot {
		mode = "hotspot"
	}
	rate := fmt.Sprintf("rate=%.2f", tr.Rate)
	if tr.Rate == 0 {
		rate = "per-role rates"
	}
	t := stats.NewTable(
		fmt.Sprintf("transaction-level load through NIUs (%s, %s)", mode, rate),
		"master", "issued", "done", "errors", "mean lat", "p95", "max")
	for _, m := range tr.PerMaster {
		t.AddRow(m.Master, m.Issued, m.Done, m.Errors, m.Latency.Mean, m.Latency.P95, m.Latency.Max)
	}
	return t
}
