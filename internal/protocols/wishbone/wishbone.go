// Package wishbone models the OpenCores WISHBONE socket (rev B.3) at
// transfer level: the public-domain interconnect interface that Soliman
// et al. adapted to an asynchronous NoC and that this repo uses to prove
// the transaction layer is genuinely virtual-component neutral — the
// protocol was added after the NIU engine was frozen, touching nothing
// below the adapter.
//
// Two cycle styles are modeled, because they are the protocol's
// performance story:
//
//   - classic cycles: every beat is a full CYC/STB/ACK handshake, so a
//     slave with N wait states costs N+1 cycles per beat;
//   - registered-feedback burst cycles (B.3 §4.3): the master announces
//     the burst through CTI_O (constant-address or incrementing, with
//     BTE_O wrap modulos), letting a supporting slave stream one beat
//     per cycle after the first ACK.
//
// Granularity matches the sibling packages: one Cycle per burst, with
// per-beat timing folded into the slave model.
package wishbone

import (
	"fmt"

	"gonoc/internal/mem"
	"gonoc/internal/protocols"
	"gonoc/internal/sim"
)

// CTI is the WISHBONE cycle-type identifier (CTI_O). The end-of-burst
// code (0b111) is implied by the last beat of a Cycle and not modeled
// separately.
type CTI uint8

// Cycle types.
const (
	Classic      CTI = iota // one full handshake per beat
	ConstAddr               // constant-address burst (FIFO port)
	Incrementing            // incrementing-address burst
)

// String renders a CTI.
func (c CTI) String() string {
	switch c {
	case Classic:
		return "CLASSIC"
	case ConstAddr:
		return "CONST"
	case Incrementing:
		return "INCR"
	default:
		return fmt.Sprintf("CTI(%d)", uint8(c))
	}
}

// BTE is the burst-type extension (BTE_O): the wrap modulo of an
// incrementing burst.
type BTE uint8

// Burst type extensions.
const (
	Linear BTE = iota
	Wrap4
	Wrap8
	Wrap16
)

// String renders a BTE.
func (b BTE) String() string {
	switch b {
	case Linear:
		return "LINEAR"
	case Wrap4:
		return "WRAP4"
	case Wrap8:
		return "WRAP8"
	case Wrap16:
		return "WRAP16"
	default:
		return fmt.Sprintf("BTE(%d)", uint8(b))
	}
}

// WrapBeats returns the BTE's wrap modulo in beats (0 = linear).
func WrapBeats(b BTE) int {
	switch b {
	case Wrap4:
		return 4
	case Wrap8:
		return 8
	case Wrap16:
		return 16
	default:
		return 0
	}
}

// Cycle is one WISHBONE bus cycle: a single classic access or a
// registered-feedback burst.
type Cycle struct {
	Write bool
	Addr  uint64
	Size  uint8 // bytes per beat (the SEL_O granularity)
	Beats int
	CTI   CTI
	BTE   BTE
	Data  []byte // writes: Beats*Size bytes
	Sel   []byte // optional per-byte select (writes), same length as Data
}

// Rsp is one cycle's response.
type Rsp struct {
	Data []byte
	Err  bool // the slave terminated the cycle with ERR_I
}

// Port is one WISHBONE socket: fully ordered request/response pipes.
type Port struct {
	Req *sim.Pipe[Cycle]
	Rsp *sim.Pipe[Rsp]
}

// NewPort creates the pipes on clk.
func NewPort(clk *sim.Clock, name string, depth int) *Port {
	return &Port{
		Req: sim.NewPipe[Cycle](clk, name+".Req", depth),
		Rsp: sim.NewPipe[Rsp](clk, name+".Rsp", depth),
	}
}

// MemBurst maps the cycle onto mem's address rule: constant for
// ConstAddr cycles, wrapping at the BTE modulo (not the beat count)
// otherwise.
func (c Cycle) MemBurst() mem.Burst {
	return mem.Burst{Fixed: c.CTI == ConstAddr, Wrap: WrapBeats(c.BTE)}
}

// Master is a transfer-level WISHBONE master: fully ordered and, per the
// classic handshake (CYC_O held for the whole cycle), single
// outstanding.
type Master struct {
	protocols.InOrder[Cycle, Rsp]
}

// NewMaster creates a WISHBONE master on clk.
func NewMaster(clk *sim.Clock, port *Port) *Master {
	m := &Master{}
	m.Bind(clk, port.Req, port.Rsp, 1, func(r Rsp) (int, []byte, bool) { return 0, r.Data, r.Err })
	return m
}

// Read queues a read cycle. cb's data is valid only during the call:
// the socket's slave reuses its buffer for a later read.
func (m *Master) Read(addr uint64, size uint8, beats int, cti CTI, bte BTE, cb func(data []byte, err bool)) {
	m.enqueue(Cycle{Addr: addr, Size: size, Beats: beats, CTI: cti, BTE: bte}, cb, nil)
}

// Write queues a write cycle. data must stay unchanged until cb runs.
func (m *Master) Write(addr uint64, size uint8, data []byte, cti CTI, bte BTE, cb func(err bool)) {
	m.WriteSel(addr, size, data, nil, cti, bte, cb)
}

// WriteSel queues a write cycle with per-byte selects.
func (m *Master) WriteSel(addr uint64, size uint8, data, sel []byte, cti CTI, bte BTE, cb func(err bool)) {
	if sel != nil && len(sel) != len(data) {
		panic(fmt.Sprintf("wishbone: SEL length %d != data %d", len(sel), len(data)))
	}
	m.enqueue(Cycle{Write: true, Addr: addr, Size: size, Beats: len(data) / int(size),
		CTI: cti, BTE: bte, Data: data, Sel: sel}, nil, cb)
}

func (m *Master) enqueue(c Cycle, rdCb func([]byte, bool), wrCb func(bool)) {
	if c.Beats < 1 {
		c.Beats = 1
	}
	if c.Write && len(c.Data) != c.Beats*int(c.Size) {
		panic(fmt.Sprintf("wishbone: write data %dB != %d beats x %dB", len(c.Data), c.Beats, c.Size))
	}
	m.Enqueue(0, c, rdCb, wrCb)
}

// MemoryConfig parameterizes a WISHBONE memory slave.
type MemoryConfig struct {
	// Latency is wait states before each ACK (classic) or before the
	// first ACK of a supported burst.
	Latency int
	// RegisteredFeedback enables B.3 §4.3 burst support: announced
	// bursts (CTI != Classic) stream one beat per cycle after the first
	// ACK. Without it every beat pays the classic handshake.
	RegisteredFeedback bool
	// ErrLo/ErrHi define a half-open address window answering ERR_I —
	// a mapped-but-faulty region for exercising error responses end to
	// end (the window is compared against the cycle's start address).
	ErrLo, ErrHi uint64
}

// Memory is a transfer-level WISHBONE memory slave.
type Memory struct {
	protocols.Target[Cycle, Rsp]
	store *mem.Backing
	base  uint64
	cfg   MemoryConfig
	ring  mem.Ring
}

// NewMemory creates a WISHBONE memory slave.
func NewMemory(clk *sim.Clock, port *Port, store *mem.Backing, base uint64, cfg MemoryConfig) *Memory {
	m := &Memory{store: store, base: base, cfg: cfg, ring: mem.NewRing(port.Rsp.Cap())}
	m.Bind(clk, port.Req, port.Rsp, m.cycleCost, m.serve)
	return m
}

// cycleCost prices a cycle in wait cycles before the response: burst
// beats stream when both sides support registered feedback; classic
// beats each pay the full handshake.
func (m *Memory) cycleCost(c Cycle) int {
	if c.CTI != Classic && m.cfg.RegisteredFeedback {
		return m.cfg.Latency + c.Beats - 1
	}
	return (m.cfg.Latency + 1) * c.Beats
}

func (m *Memory) serve(c Cycle) Rsp {
	if m.cfg.ErrHi > m.cfg.ErrLo && c.Addr >= m.cfg.ErrLo && c.Addr < m.cfg.ErrHi {
		return Rsp{Err: true}
	}
	if c.Write {
		m.store.WriteBurst(c.Data, c.Sel, c.MemBurst(), c.Addr, m.base, c.Size)
		return Rsp{}
	}
	data := m.ring.Next(c.Beats * int(c.Size))
	m.store.ReadBurst(data, c.MemBurst(), c.Addr, m.base, c.Size)
	return Rsp{Data: data}
}
