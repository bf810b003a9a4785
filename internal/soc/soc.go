package soc

import (
	"fmt"

	"gonoc/internal/bus"
	"gonoc/internal/core"
	"gonoc/internal/ip"
	"gonoc/internal/mem"
	"gonoc/internal/niu"
	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/protocols/axi"
	"gonoc/internal/protocols/ocp"
	"gonoc/internal/protocols/prop"
	"gonoc/internal/protocols/vci"
	"gonoc/internal/protocols/wishbone"
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// Node assignments.
const (
	NodeAXIM noctypes.NodeID = 1 + iota
	NodeOCPM
	NodeAHBM
	NodePVCIM
	NodeBVCIM
	NodeAVCIM
	NodePropM
	NodeWBM // present only when Config.Wishbone is set
)

// Slave nodes and bases.
const (
	NodeAXIMem  noctypes.NodeID = 100
	NodeOCPMem  noctypes.NodeID = 101
	NodeAHBMem  noctypes.NodeID = 102
	NodeBVCIMem noctypes.NodeID = 103
	NodeWBMem   noctypes.NodeID = 104 // present only when Config.Wishbone is set

	BaseAXIMem  = 0x1000_0000
	BaseOCPMem  = 0x2000_0000
	BaseAHBMem  = 0x3000_0000
	BaseBVCIMem = 0x4000_0000
	BaseWBMem   = 0x5000_0000
	MemSize     = 1 << 20
)

// Topology selects the NoC shape; the names and the builders belong
// to internal/transport.
type Topology = transport.Topology

// Topologies.
const (
	Crossbar = transport.Crossbar
	Mesh     = transport.Mesh
	Torus    = transport.Torus
	Ring     = transport.Ring
	Tree     = transport.Tree
)

// Config parameterizes a system build.
type Config struct {
	Seed              int64
	RequestsPerMaster int
	// Quiet builds the system without traffic generators, for
	// experiments that drive the protocol engines directly.
	Quiet bool
	// Wishbone adds an eighth master (a WISHBONE IP behind its NIU) and
	// a fifth memory target (a WISHBONE memory with registered-feedback
	// burst support) to the NoC build. Off by default so the historical
	// seven-master system — and every seeded result derived from it —
	// is unchanged. BuildBus ignores the flag: the Fig-2 reference bus
	// predates the WISHBONE IP.
	Wishbone bool

	// Probe, when non-nil, is attached to the NoC fabric as soon as it
	// is built (transport.Network.SetProbe), so switches, endpoints and
	// every NIU engine emit instrumentation events from cycle 0.
	// BuildBus ignores it: the Fig-2 bus has no fabric to instrument.
	Probe obs.Probe

	// MasterPriority overrides the injection priority of individual
	// master NIUs, keyed by socket name ("axi" ... "prop", "wb").
	// Sockets absent from the map keep noctypes.PrioDefault. BuildBus
	// ignores it: the Fig-2 bus arbitrates ownership, not packets.
	MasterPriority map[string]noctypes.Priority

	// NoC knobs.
	Net      transport.NetConfig
	Topology Topology
	Services core.ServiceSet
}

// LaneDepth is the fabric lane depth, in flits, of a build whose
// Config.Net.BufDepth is zero: 64 under store-and-forward, which buffers
// whole packets, and 16 otherwise, deeper than transport's own default.
func LaneDepth(net transport.NetConfig) int {
	if net.Mode == transport.StoreAndForward {
		return 64
	}
	return 16
}

// Fixed build parameters: every memory's latency in cycles (wait states
// on AHB) and the master NIUs' MaxOutstanding. A bus bridge's conversion
// latency is a constant of internal/bus.
const (
	memLatency  = 2
	outstanding = 8
)

func (c Config) withDefaults() Config {
	if c.RequestsPerMaster == 0 {
		c.RequestsPerMaster = 40
	}
	if c.Net.BufDepth == 0 {
		c.Net.BufDepth = LaneDepth(c.Net)
	}
	z := core.ServiceSet{}
	if c.Services == z {
		c.Services = core.ServiceSet{Exclusive: true, LegacyLock: true}
	}
	return c
}

// NIUStatser exposes master-NIU statistics.
type NIUStatser interface{ Stats() niu.MasterStats }

// System is one assembled SoC (either interconnect).
type System struct {
	Kind string // "noc" or "bus"
	Cfg  Config

	K    *sim.Kernel
	Clk  *sim.Clock
	AMap *core.AddressMap

	Net *transport.Network // nil for bus systems
	Bus *bus.Bus           // nil for NoC systems

	// Protocol master engines, one per IP master.
	AXIM  *axi.Master
	OCPM  *ocp.Master
	AHBM  *ahb.Master
	PVCIM *vci.PMaster
	BVCIM *vci.BMaster
	AVCIM *vci.AMaster
	PropM *prop.Master
	WBM   *wishbone.Master // nil unless Config.Wishbone (NoC builds only)

	// Generators keyed by protocol name.
	Gens map[string]*ip.Gen

	// NoC-side NIU handles for stats (empty on bus systems): masters
	// keyed like Gens, slaves like Stores.
	MasterNIUs map[string]NIUStatser
	SlaveNIUs  map[string]*niu.SlaveEngine

	// Shared memory backings keyed by slave name.
	Stores map[string]*mem.Backing

	// Prof, when set (after Build, before Run), is the profile Run
	// advances the clock through, publishing the cycles it runs as it
	// goes. It observes only; attaching it never changes simulated
	// behavior.
	Prof *metrics.SimProfile
}

// buildCommon creates kernel, clock, address map and stores.
func buildCommon(cfg Config) *System {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "sys", sim.Nanosecond, 0)
	amap := core.NewAddressMap()
	stores := map[string]*mem.Backing{}
	for _, m := range Memories(cfg.Wishbone) {
		amap.MustAdd(m.Socket+"-mem", m.Base, MemSize, m.Node)
		stores[m.Socket] = mem.NewBacking(MemSize)
	}
	amap.Freeze()
	return &System{
		Cfg: cfg, K: k, Clk: clk, AMap: amap,
		Gens:       make(map[string]*ip.Gen),
		MasterNIUs: make(map[string]NIUStatser),
		SlaveNIUs:  make(map[string]*niu.SlaveEngine),
		Stores:     stores,
	}
}

// genRegions maps each master onto a private 64 KiB window, deliberately
// crossing protocols (PVCI targets the AXI memory, AVCI the OCP memory,
// the proprietary streamer the AHB memory).
func genRegion(master string) ip.Region {
	switch master {
	case "axi":
		return ip.Region{Base: BaseAXIMem, Size: 0x10000}
	case "ocp":
		return ip.Region{Base: BaseOCPMem, Size: 0x10000}
	case "ahb":
		return ip.Region{Base: BaseAHBMem, Size: 0x10000}
	case "pvci":
		return ip.Region{Base: BaseAXIMem + 0x20000, Size: 0x10000}
	case "bvci":
		return ip.Region{Base: BaseBVCIMem, Size: 0x10000}
	case "avci":
		return ip.Region{Base: BaseOCPMem + 0x20000, Size: 0x10000}
	case "prop":
		return ip.Region{Base: BaseAHBMem + 0x20000, Size: 0x10000}
	case "wb":
		return ip.Region{Base: BaseWBMem, Size: 0x10000}
	}
	panic("soc: unknown master " + master)
}

// BuildNoC assembles the Fig-1 system.
func BuildNoC(cfg Config) *System {
	cfg = cfg.withDefaults()
	s := buildCommon(cfg)
	s.Kind = "noc"

	nodes := []noctypes.NodeID{
		NodeAXIM, NodeOCPM, NodeAHBM, NodePVCIM, NodeBVCIM, NodeAVCIM, NodePropM,
		NodeAXIMem, NodeOCPMem, NodeAHBMem, NodeBVCIMem,
	}
	if cfg.Wishbone {
		nodes = append(nodes, NodeWBM, NodeWBMem)
	}
	// A 4-wide grid grows rows as sockets are added (4x3 historically);
	// a tree hangs three sockets off each leaf switch.
	s.Net = transport.Build(s.Clk, cfg.Net, transport.Shape{Topology: cfg.Topology,
		W: 4, H: (len(nodes) + 3) / 4, Fanout: 3}, nodes)
	if cfg.Probe != nil {
		s.Net.SetProbe(cfg.Probe)
	}

	mcfg := func(name string, node noctypes.NodeID) niu.MasterConfig {
		prio := noctypes.PrioDefault
		if p, ok := cfg.MasterPriority[name]; ok {
			prio = p
		}
		return niu.MasterConfig{
			Node:     node,
			Services: cfg.Services,
			Table:    core.TableConfig{MaxOutstanding: outstanding, MaxTargets: 4},
			NumTags:  4,
			Priority: prio,
		}
	}

	// Masters: IP engine + NIU per socket.
	axiPort := axi.NewPort(s.Clk, "m.axi", 4)
	s.AXIM = axi.NewMaster(s.Clk, axiPort, nil)
	s.MasterNIUs["axi"] = niu.NewAXIMaster(s.Clk, s.Net, s.AMap, axiPort, mcfg("axi", NodeAXIM))

	ocpPort := ocp.NewPort(s.Clk, "m.ocp", 4)
	s.OCPM = ocp.NewMaster(s.Clk, ocpPort)
	s.MasterNIUs["ocp"] = niu.NewOCPMaster(s.Clk, s.Net, s.AMap, ocpPort, mcfg("ocp", NodeOCPM))

	ahbPort := ahb.NewPort(s.Clk, "m.ahb", 4)
	s.AHBM = ahb.NewMaster(s.Clk, ahbPort, 2)
	s.MasterNIUs["ahb"] = niu.NewAHBMaster(s.Clk, s.Net, s.AMap, ahbPort, mcfg("ahb", NodeAHBM))

	pvciPort := vci.NewPPort(s.Clk, "m.pvci", 4)
	s.PVCIM = vci.NewPMaster(s.Clk, pvciPort)
	s.MasterNIUs["pvci"] = niu.NewPVCIMaster(s.Clk, s.Net, s.AMap, pvciPort, mcfg("pvci", NodePVCIM))

	bvciPort := vci.NewBPort(s.Clk, "m.bvci", 4)
	s.BVCIM = vci.NewBMaster(s.Clk, bvciPort, 2)
	s.MasterNIUs["bvci"] = niu.NewBVCIMaster(s.Clk, s.Net, s.AMap, bvciPort, mcfg("bvci", NodeBVCIM))

	avciPort := vci.NewAPort(s.Clk, "m.avci", 4)
	s.AVCIM = vci.NewAMaster(s.Clk, avciPort)
	s.MasterNIUs["avci"] = niu.NewAVCIMaster(s.Clk, s.Net, s.AMap, avciPort, mcfg("avci", NodeAVCIM))

	propPort := prop.NewPort(s.Clk, "m.prop", 8)
	s.PropM = prop.NewMaster(s.Clk, propPort)
	s.MasterNIUs["prop"] = niu.NewPropMaster(s.Clk, s.Net, s.AMap, propPort, mcfg("prop", NodePropM))

	if cfg.Wishbone {
		wbPort := wishbone.NewPort(s.Clk, "m.wb", 4)
		s.WBM = wishbone.NewMaster(s.Clk, wbPort)
		s.MasterNIUs["wb"] = niu.NewWBMaster(s.Clk, s.Net, s.AMap, wbPort, mcfg("wb", NodeWBM))
	}

	// Slaves: protocol memory + slave NIU per socket.
	scfg := func(node noctypes.NodeID) niu.SlaveConfig {
		return niu.SlaveConfig{Node: node, Services: cfg.Services, MaxConcurrent: 4}
	}
	axiSP := axi.NewPort(s.Clk, "s.axi", 4)
	axi.NewMemory(s.Clk, axiSP, s.Stores["axi"], BaseAXIMem, axi.MemoryConfig{Latency: memLatency})
	s.SlaveNIUs["axi"] = niu.NewAXISlave(s.Clk, s.Net, axiSP, scfg(NodeAXIMem)).SlaveEngine

	ocpSP := ocp.NewPort(s.Clk, "s.ocp", 4)
	ocp.NewMemory(s.Clk, ocpSP, s.Stores["ocp"], BaseOCPMem, ocp.MemoryConfig{Latency: memLatency, Threads: 4, LazySync: true})
	s.SlaveNIUs["ocp"] = niu.NewOCPSlave(s.Clk, s.Net, ocpSP, 4, scfg(NodeOCPMem)).SlaveEngine

	ahbSP := ahb.NewPort(s.Clk, "s.ahb", 4)
	ahb.NewMemory(s.Clk, ahbSP, s.Stores["ahb"], BaseAHBMem, ahb.MemoryConfig{WaitStates: memLatency})
	s.SlaveNIUs["ahb"] = niu.NewAHBSlave(s.Clk, s.Net, ahbSP, scfg(NodeAHBMem)).SlaveEngine

	bvciSP := vci.NewBPort(s.Clk, "s.bvci", 4)
	vci.NewBMemory(s.Clk, bvciSP, s.Stores["bvci"], BaseBVCIMem, memLatency)
	s.SlaveNIUs["bvci"] = niu.NewBVCISlave(s.Clk, s.Net, bvciSP, scfg(NodeBVCIMem)).SlaveEngine

	if cfg.Wishbone {
		wbSP := wishbone.NewPort(s.Clk, "s.wb", 4)
		wishbone.NewMemory(s.Clk, wbSP, s.Stores["wb"], BaseWBMem,
			wishbone.MemoryConfig{Latency: memLatency, RegisteredFeedback: true})
		s.SlaveNIUs["wb"] = niu.NewWBSlave(s.Clk, s.Net, wbSP, scfg(NodeWBMem)).SlaveEngine
	}

	if !cfg.Quiet {
		s.makeGens()
	}
	return s
}

// BuildBus assembles the Fig-2 system from the same IP set.
func BuildBus(cfg Config) *System {
	cfg = cfg.withDefaults()
	s := buildCommon(cfg)
	s.Kind = "bus"
	s.Bus = bus.New(s.Clk, s.AMap)

	// Masters: AHB connects natively (it IS the reference socket);
	// everything else crosses a bridge.
	axiPort := axi.NewPort(s.Clk, "m.axi", 4)
	s.AXIM = axi.NewMaster(s.Clk, axiPort, nil)
	bus.NewAXIBridge(s.Clk, s.Bus, axiPort)

	ocpPort := ocp.NewPort(s.Clk, "m.ocp", 4)
	s.OCPM = ocp.NewMaster(s.Clk, ocpPort)
	bus.NewOCPBridge(s.Clk, s.Bus, ocpPort)

	ahbPort := ahb.NewPort(s.Clk, "m.ahb", 2)
	s.AHBM = ahb.NewMaster(s.Clk, ahbPort, 1)
	s.Bus.AddMaster(ahbPort)

	pvciPort := vci.NewPPort(s.Clk, "m.pvci", 4)
	s.PVCIM = vci.NewPMaster(s.Clk, pvciPort)
	bus.NewPVCIBridge(s.Clk, s.Bus, pvciPort)

	bvciPort := vci.NewBPort(s.Clk, "m.bvci", 4)
	s.BVCIM = vci.NewBMaster(s.Clk, bvciPort, 2)
	bus.NewBVCIBridge(s.Clk, s.Bus, bvciPort)

	avciPort := vci.NewAPort(s.Clk, "m.avci", 4)
	s.AVCIM = vci.NewAMaster(s.Clk, avciPort)
	bus.NewAVCIBridge(s.Clk, s.Bus, avciPort)

	propPort := prop.NewPort(s.Clk, "m.prop", 8)
	s.PropM = prop.NewMaster(s.Clk, propPort)
	bus.NewPropBridge(s.Clk, s.Bus, propPort)

	// Slaves: AHB memory native, the rest behind slave bridges.
	ahbSP := ahb.NewPort(s.Clk, "s.ahb", 2)
	ahb.NewMemory(s.Clk, ahbSP, s.Stores["ahb"], BaseAHBMem, ahb.MemoryConfig{WaitStates: memLatency})
	s.Bus.AddSlave(NodeAHBMem, ahbSP)

	axiSP := axi.NewPort(s.Clk, "s.axi", 4)
	axi.NewMemory(s.Clk, axiSP, s.Stores["axi"], BaseAXIMem, axi.MemoryConfig{Latency: memLatency})
	bus.NewAXISlaveBridge(s.Clk, s.Bus, NodeAXIMem, axiSP)

	ocpSP := ocp.NewPort(s.Clk, "s.ocp", 4)
	ocp.NewMemory(s.Clk, ocpSP, s.Stores["ocp"], BaseOCPMem, ocp.MemoryConfig{Latency: memLatency, Threads: 1})
	bus.NewOCPSlaveBridge(s.Clk, s.Bus, NodeOCPMem, ocpSP)

	bvciSP := vci.NewBPort(s.Clk, "s.bvci", 4)
	vci.NewBMemory(s.Clk, bvciSP, s.Stores["bvci"], BaseBVCIMem, memLatency)
	bus.NewBVCISlaveBridge(s.Clk, s.Bus, NodeBVCIMem, bvciSP)

	if !cfg.Quiet {
		s.makeGens()
	}
	return s
}

// makeGens puts one generator on every socket, in Masters order; the
// n-th (from 1) draws from seed Seed^(n·7919).
func (s *System) makeGens() {
	socks := s.Sockets()
	for i, name := range Masters(s.WBM != nil) {
		s.Gens[name] = ip.NewGen(s.Clk, socks[name], ip.GenConfig{
			Seed:     s.Cfg.Seed ^ int64((i+1)*7919),
			Requests: s.Cfg.RequestsPerMaster,
			Region:   genRegion(name),
		})
	}
}

// AllDone reports whether every generator has finished.
func (s *System) AllDone() bool {
	for _, g := range s.Gens {
		if !g.Done() {
			return false
		}
	}
	return true
}

// Run drives the system until all generators finish, checking every
// 64 cycles, then validates the scoreboards. It runs at most maxCycles
// cycles, the last step clipped, and returns the cycles it ran.
func (s *System) Run(maxCycles int64) (int64, error) {
	ran := s.Prof.Run(s.Clk, maxCycles, 64, func() bool { return !s.AllDone() })
	if !s.AllDone() {
		return ran, fmt.Errorf("soc: %s system did not finish in %d cycles", s.Kind, maxCycles)
	}
	return ran, ip.CheckAll(s.Gens)
}
