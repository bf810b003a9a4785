// Package ocp models the OCP socket at transfer level: a threaded
// request/response pair with posted writes (no response), non-posted
// writes, burst reads, and lazy synchronization (ReadLinked /
// WriteConditional) — the OCP features the paper names as ordering and
// synchronization challenges for a VC-neutral transaction layer.
//
// Ordering contract: responses are in order within a thread
// (SThreadID == MThreadID streams), unordered across threads.
package ocp

import (
	"fmt"

	"gonoc/internal/mem"
	"gonoc/internal/sim"
)

// Cmd is an OCP request command (MCmd).
type Cmd uint8

// OCP commands used by this model.
const (
	CmdIdle Cmd = iota
	CmdWR       // posted write: no response
	CmdRD       // read
	CmdWRNP     // non-posted write: responds DVA
	CmdRDL      // ReadLinked (lazy synchronization)
	CmdWRC      // WriteConditional (lazy synchronization)
)

// String renders a Cmd.
func (c Cmd) String() string {
	switch c {
	case CmdIdle:
		return "IDLE"
	case CmdWR:
		return "WR"
	case CmdRD:
		return "RD"
	case CmdWRNP:
		return "WRNP"
	case CmdRDL:
		return "RDL"
	case CmdWRC:
		return "WRC"
	default:
		return fmt.Sprintf("MCMD(%d)", uint8(c))
	}
}

// IsWrite reports whether the command carries write data.
func (c Cmd) IsWrite() bool { return c == CmdWR || c == CmdWRNP || c == CmdWRC }

// SResp is an OCP response code.
type SResp uint8

// OCP response codes.
const (
	RespNull SResp = iota
	RespDVA        // data valid / accepted
	RespFAIL       // WriteConditional lost its reservation
	RespERR
)

// String renders an SResp.
func (r SResp) String() string {
	switch r {
	case RespNull:
		return "NULL"
	case RespDVA:
		return "DVA"
	case RespFAIL:
		return "FAIL"
	case RespERR:
		return "ERR"
	default:
		return fmt.Sprintf("SRESP(%d)", uint8(r))
	}
}

// BurstSeq is the OCP burst sequence (MBurstSeq).
type BurstSeq uint8

// Burst sequences.
const (
	SeqIncr BurstSeq = iota
	SeqWrap
	SeqStrm // streaming: fixed address
)

// String renders a BurstSeq.
func (b BurstSeq) String() string {
	switch b {
	case SeqIncr:
		return "INCR"
	case SeqWrap:
		return "WRAP"
	case SeqStrm:
		return "STRM"
	default:
		return fmt.Sprintf("SEQ(%d)", uint8(b))
	}
}

// ReqBeat is one request-phase transfer.
type ReqBeat struct {
	Cmd      Cmd
	Addr     uint64
	Data     []byte // one beat for writes
	ByteEn   []byte
	ThreadID int
	Size     uint8 // bytes per beat
	BurstLen int   // total beats in this burst
	Seq      BurstSeq
	Last     bool // MReqLast

	// onAccept is master-internal: fired when the socket accepts this
	// beat (posted-write completion semantics).
	onAccept func()
}

// RespBeat is one response-phase transfer.
type RespBeat struct {
	Resp     SResp
	Data     []byte
	ThreadID int
	Last     bool // SRespLast
}

// Port is one OCP interface (request + response channels).
type Port struct {
	Req  *sim.Pipe[ReqBeat]
	Resp *sim.Pipe[RespBeat]
}

// NewPort creates the channel pipes on clk with the given depth.
func NewPort(clk *sim.Clock, name string, depth int) *Port {
	return &Port{
		Req:  sim.NewPipe[ReqBeat](clk, name+".Req", depth),
		Resp: sim.NewPipe[RespBeat](clk, name+".Resp", depth),
	}
}

// MemBurst maps a burst of beats beats onto mem's address rule:
// streaming bursts hold their address.
func (b BurstSeq) MemBurst(beats int) mem.Burst {
	switch b {
	case SeqStrm:
		return mem.Burst{Fixed: true}
	case SeqWrap:
		return mem.Burst{Wrap: beats}
	}
	return mem.Burst{}
}
