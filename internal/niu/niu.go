// Package niu implements Network Interface Units: the paper's converters
// between foreign IP socket protocols and the NoC transaction layer.
//
// Every NIU is the same machine: a protocol-neutral engine (engine.go)
// that owns the transaction table, tag/ordering policy, packetization
// and the transport.Endpoint exchange, plus a thin per-protocol adapter
// that translates between the socket's signalling and core.Request /
// core.Response. A master-side NIU terminates an IP master's socket
// (AHB, AXI, OCP, VCI flavours, Wishbone, proprietary) through a
// MasterAdapter; a slave-side NIU executes arriving transaction-layer
// requests against a target IP by driving that IP's socket with an
// embedded protocol master engine, through a SlaveAdapter. The slave
// engine also owns the per-service NIU state — notably the exclusive-
// access monitor, which is all the slave-side hardware the AXI/OCP
// exclusive "NoC service" costs (§3).
package niu

import (
	"fmt"
	"math"

	"gonoc/internal/core"
	"gonoc/internal/noctypes"
)

// beatLen converts a socket burst's beat count into core.Request.Len,
// which carries at most 65,535 beats. A longer burst panics naming the
// socket: wrapped, it would cross the fabric as a short request (a write
// whose payload no longer matches, a read answered short with no
// error). scenario.Validate keeps every role's bytes inside the bound.
func beatLen(socket string, beats int) uint16 {
	if beats < 0 || beats > math.MaxUint16 {
		overlong(socket, beats)
	}
	return uint16(beats)
}

// overlong stays out of line so that beatLen inlines.
//
//go:noinline
func overlong(socket string, beats int) {
	panic(fmt.Sprintf("niu: %s burst of %d beats exceeds the %d one request carries", socket, beats, math.MaxUint16))
}

// MasterConfig sizes a master-side NIU.
type MasterConfig struct {
	Node     noctypes.NodeID
	NumTags  int // tag contexts (ordering hardware)
	Table    core.TableConfig
	Services core.ServiceSet
	Priority noctypes.Priority // default packet priority for this NIU
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.NumTags == 0 {
		c.NumTags = 1
	}
	if c.Table.MaxOutstanding == 0 {
		c.Table.MaxOutstanding = 4
	}
	if c.Table.MaxTargets == 0 {
		c.Table.MaxTargets = 4
	}
	return c
}

// MasterStats aggregates master-NIU activity.
type MasterStats struct {
	Issued       uint64
	Completed    uint64
	Posted       uint64
	DecodeErrors uint64
	StallCycles  uint64 // cycles a ready socket request could not issue
	PeakTable    int
}

// SlaveConfig sizes a slave-side NIU.
type SlaveConfig struct {
	Node     noctypes.NodeID
	Services core.ServiceSet
	// MaxConcurrent bounds requests being executed against the target IP
	// simultaneously (the slave NIU's own table size).
	MaxConcurrent int
}

// responseQueue bounds a slave NIU's responses waiting for fabric
// credit.
const responseQueue = 8

func (c SlaveConfig) withDefaults() SlaveConfig {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	return c
}

// SlaveStats aggregates slave-NIU activity.
type SlaveStats struct {
	Requests     uint64
	Responses    uint64
	ExclusiveOK  uint64
	ExclusiveNak uint64
	Unsupported  uint64
}

// statusFor converts an IP-level error flag on a cmd request into a
// transaction status, upgrading successful exclusives to StExOK.
func statusFor(cmd core.Cmd, ipErr bool) core.Status {
	switch {
	case ipErr:
		return core.StErrSlave
	case cmd == core.CmdWriteEx || cmd == core.CmdReadEx:
		return core.StExOK
	default:
		return core.StOK
	}
}
