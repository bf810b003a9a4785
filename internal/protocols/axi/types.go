// Package axi models the AMBA AXI socket at transfer level: five
// independent channels (AR, R, AW, W, B), transaction IDs with
// out-of-order responses across IDs, independent read and write paths,
// burst transfers, and exclusive accesses.
//
// The channel beats are the protocol's observable contract; cycle costs
// come from the sim.Pipe register semantics (one beat per channel per
// cycle) plus whatever the slave or NIU adds.
package axi

import (
	"fmt"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

// Resp is an AXI response code.
type Resp uint8

// AXI response codes.
const (
	RespOKAY Resp = iota
	RespEXOKAY
	RespSLVERR
	RespDECERR
)

// String renders a Resp.
func (r Resp) String() string {
	switch r {
	case RespOKAY:
		return "OKAY"
	case RespEXOKAY:
		return "EXOKAY"
	case RespSLVERR:
		return "SLVERR"
	case RespDECERR:
		return "DECERR"
	default:
		return fmt.Sprintf("RESP(%d)", uint8(r))
	}
}

// MaxBeats is the longest burst an AXI socket carries (AxLEN+1).
const MaxBeats = 256

// Burst is an AXI burst type.
type Burst uint8

// AXI burst types.
const (
	BurstFixed Burst = iota
	BurstIncr
	BurstWrap
)

// String renders a Burst.
func (b Burst) String() string {
	switch b {
	case BurstFixed:
		return "FIXED"
	case BurstIncr:
		return "INCR"
	case BurstWrap:
		return "WRAP"
	default:
		return fmt.Sprintf("BURST(%d)", uint8(b))
	}
}

// MemBurst maps an AXI burst of beats beats onto mem's address rule.
func (b Burst) MemBurst(beats int) mem.Burst {
	switch b {
	case BurstFixed:
		return mem.Burst{Fixed: true}
	case BurstWrap:
		return mem.Burst{Wrap: beats}
	}
	return mem.Burst{}
}

// ARBeat is one read-address channel transfer. Len follows AXI encoding:
// beats-1 (0 => 1 beat).
type ARBeat struct {
	ID    int
	Addr  uint64
	Len   uint8
	Size  uint8 // bytes per beat
	Burst Burst
	Lock  bool // exclusive read
	QoS   uint8
}

// Beats returns the burst length in beats.
func (a ARBeat) Beats() int { return int(a.Len) + 1 }

// RBeat is one read-data channel transfer.
type RBeat struct {
	ID   int
	Data []byte // one beat of Size bytes
	Resp Resp
	Last bool
}

// AWBeat is one write-address channel transfer.
type AWBeat struct {
	ID    int
	Addr  uint64
	Len   uint8
	Size  uint8
	Burst Burst
	Lock  bool // exclusive write
	QoS   uint8
}

// Beats returns the burst length in beats.
func (a AWBeat) Beats() int { return int(a.Len) + 1 }

// WBeat is one write-data channel transfer. AXI4 write data follows
// address order, so WBeat carries no ID.
type WBeat struct {
	Data []byte
	Strb []byte // per-byte strobes; nil = all enabled
	Last bool
}

// BBeat is one write-response channel transfer.
type BBeat struct {
	ID   int
	Resp Resp
}

// Port is one AXI interface: the five channels. Direction is by
// convention — the master pushes AR/AW/W and pops R/B, the slave does the
// opposite.
type Port struct {
	AR *sim.Pipe[ARBeat]
	R  *sim.Pipe[RBeat]
	AW *sim.Pipe[AWBeat]
	W  *sim.Pipe[WBeat]
	B  *sim.Pipe[BBeat]
}

// NewPort creates the channel pipes on clk with the given depth.
func NewPort(clk *sim.Clock, name string, depth int) *Port {
	return &Port{
		AR: sim.NewPipe[ARBeat](clk, name+".AR", depth),
		R:  sim.NewPipe[RBeat](clk, name+".R", depth),
		AW: sim.NewPipe[AWBeat](clk, name+".AW", depth),
		W:  sim.NewPipe[WBeat](clk, name+".W", depth),
		B:  sim.NewPipe[BBeat](clk, name+".B", depth),
	}
}
