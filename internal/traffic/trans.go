package traffic

import (
	"fmt"
	"sort"
	"time"

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

	// Prof, when non-nil, receives self-profiling samples as the run
	// executes (same contract as Config.Prof).
	Prof *metrics.SimProfile `json:"-"`

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
	// Store-and-forward buffers — and ring/torus lanes, whose cut-through
	// admission also buffers whole packets — must hold the largest packet
	// any role produces (same rule Config.withDefaults applies on the
	// packet path). The NIU wire format adds a bounded request/response
	// header on top of the data beats; reqWireOverhead over-reserves a
	// little rather than panicking deep inside transport.
	if tc.Net.Mode == transport.StoreAndForward || tc.Topology == soc.Ring || tc.Topology == soc.Torus {
		maxBytes := 0
		for _, r := range roles {
			if r.Bytes > maxBytes {
				maxBytes = r.Bytes
			}
		}
		net := tc.Net.WithDefaults()
		eff := net.BufDepth
		if tc.Net.BufDepth == 0 {
			eff = 16 // soc.Config.withDefaults' deeper fabric default
		}
		if need := transport.FlitCount(transport.HeaderBytes+reqWireOverhead+maxBytes, net.FlitBytes); need > eff {
			tc.Net.BufDepth = need
		}
	}
	s := soc.BuildNoC(soc.Config{Seed: tc.Seed, Quiet: true, Topology: tc.Topology,
		Wishbone: wishbone, Probe: tc.Probe, Net: tc.Net, MasterPriority: prios})
	if built != nil {
		built(s)
	}
	socks := s.Sockets()
	bases := []uint64{soc.BaseAXIMem, soc.BaseOCPMem, soc.BaseAHBMem, soc.BaseBVCIMem}
	if wishbone {
		bases = append(bases, soc.BaseWBMem)
	}

	// transCall is one transaction in flight: its issue cycle and
	// whether it was issued while measuring. Its completion is bound
	// once, when it is made, and it returns to its master's free list.
	type transCall struct {
		start    int64
		measured bool
		done     ip.Done
	}
	type mstate struct {
		name     string
		sock     ip.Socket
		rng      *sim.RNG
		inflight int
		k        int
		issued   int
		done     int
		errs     int
		lat      stats.Latency
		free     []*transCall
	}
	root := sim.NewRNG(tc.Seed)
	var (
		genOn     bool
		measuring bool
		cmplMeas  int
	)
	states := make([]*mstate, 0, len(roles))
	for i, role := range roles {
		sock, ok := socks[role.Master]
		if !ok {
			panic(fmt.Sprintf("traffic: unknown trans master %q", role.Master))
		}
		st := &mstate{name: role.Master, sock: sock, rng: root.Fork("trans." + role.Master)}
		// Default addressing: each master owns a private 16 KiB lane
		// inside each memory so bursts stay window-local without
		// aliasing another master's. An explicit role target replaces
		// the lane with a stride walk of [Base, Base+Size).
		lane := uint64(0x60000 + i*0x4000)
		var stride, slots uint64
		if role.Size != 0 {
			stride = (uint64(role.Bytes) + 63) / 64 * 64
			if stride == 0 {
				stride = 64
			}
			slots = role.Size / stride
			if slots == 0 || role.Size%64 != 0 {
				panic(fmt.Sprintf("traffic: trans role %q target size %#x cannot hold a %d-byte stride (want a multiple of 64 >= the transaction size)",
					role.Master, role.Size, stride))
			}
		}
		st2, role2 := st, role
		s.Clk.Register(sim.ClockedFunc{OnEval: func(cycle int64) {
			if !genOn || st2.inflight >= role2.Window || !st2.rng.Bool(role2.Rate) {
				return
			}
			var addr uint64
			if role2.Size != 0 {
				addr = role2.Base + uint64(st2.k)%slots*stride
			} else {
				var base uint64 = soc.BaseAXIMem
				if !tc.Hotspot {
					base = bases[st2.k%len(bases)]
				}
				addr = base + lane + uint64((st2.k*64)%0x4000)
			}
			write := !st2.rng.Bool(role2.ReadFrac)
			st2.k++
			st2.issued++
			st2.inflight++
			var c *transCall
			if n := len(st2.free); n > 0 {
				c, st2.free = st2.free[n-1], st2.free[:n-1]
			} else {
				c = new(transCall)
				c.done = func(_ []byte, err bool) {
					start, measured := c.start, c.measured
					st2.free = append(st2.free, c)
					st2.inflight--
					st2.done++
					if err {
						st2.errs++
					}
					if measuring {
						cmplMeas++
					}
					if measured {
						st2.lat.Record(s.Clk.Cycle() - start)
					}
				}
			}
			c.start, c.measured = cycle, measuring
			st2.sock.Issue(st2.k-1, write, addr, role2.Bytes, c.done)
		}})
		states = append(states, st)
	}

	// Phase loop with optional self-profiling, mirroring rig.run: when a
	// profile is attached the clock runs in publishing chunks; otherwise
	// each phase is a single RunCycles, exactly as before.
	k := s.Clk.Kernel()
	var lastCycles, lastEvents int64
	publish := func() {
		if tc.Prof == nil {
			return
		}
		c, e := s.Clk.Cycle(), int64(k.Steps())
		tc.Prof.SetHeapDepth(k.Pending())
		tc.Prof.Advance(c-lastCycles, e-lastEvents)
		lastCycles, lastEvents = c, e
	}
	runPhase := func(n int64) {
		if tc.Prof == nil {
			s.Clk.RunCycles(n)
			return
		}
		for done := int64(0); done < n; {
			step := int64(profileChunk)
			if done+step > n {
				step = n - done
			}
			s.Clk.RunCycles(step)
			done += step
			publish()
		}
	}

	t0 := time.Now()
	genOn = true
	tc.Prof.SetPhase(metrics.PhaseWarmup)
	runPhase(tc.Warmup)
	t1 := time.Now()
	measuring = true
	tc.Prof.SetPhase(metrics.PhaseMeasure)
	runPhase(tc.Measure)
	t2 := time.Now()
	measuring = false
	genOn = false
	tc.Prof.SetPhase(metrics.PhaseDrain)
	outstanding := func() int {
		total := 0
		for _, st := range states {
			total += st.inflight
		}
		return total
	}
	// The completion check runs every 64 cycles, with the last step
	// clipped so the cap is exact, as in rig.run.
	for c := int64(0); c < tc.Drain && outstanding() > 0; {
		step := min(int64(64), tc.Drain-c)
		s.Clk.RunCycles(step)
		c += step
		publish()
	}
	tc.Prof.SetPhase(metrics.PhaseDone)
	t3 := time.Now()

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
			Master: st.name, Issued: st.issued, Done: st.done, Errors: st.errs,
			Latency: st.lat.Summary(),
		})
	}
	sort.Slice(res.PerMaster, func(i, j int) bool { return res.PerMaster[i].Master < res.PerMaster[j].Master })
	res.Throughput = float64(cmplMeas) * 1000 / float64(tc.Measure)
	res.Incomplete = outstanding()
	if tc.CollectWall {
		res.Wall = newWallStats(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), k.Steps(), s.Clk.Cycle())
	}
	return res
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
