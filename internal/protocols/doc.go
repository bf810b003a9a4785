// Package protocols groups the cycle-level socket-protocol engines the
// mixed-protocol SoC is built from, one subpackage per protocol family:
//
//	axi      — AXI: independent read/write channels, IDs, out-of-order
//	           completion, exclusive access
//	ocp      — OCP: threads, posted writes, lazy synchronization
//	           (ReadLinked/WriteConditional)
//	ahb      — AHB: the reference bus socket; single outstanding
//	           transaction, locked sequences (HMASTLOCK)
//	vci      — the VSIA VCI family: PVCI (peripheral), BVCI (basic),
//	           AVCI (advanced, with packet identifiers)
//	wishbone — WISHBONE: classic and registered-feedback burst cycles
//	prop     — a proprietary streaming socket, to show NIU neutrality
//	           extends beyond standard sockets
//
// Each subpackage models its protocol's master/slave signalling at
// cycle level (ports are sim.Pipe-backed channel bundles) and knows
// nothing about the NoC: the adapters in internal/niu translate between
// these sockets and the VC-neutral transaction layer, and the bridges
// in internal/bus translate them onto the reference bus.
//
// The package itself holds the engines the sockets share. InOrder is
// the master engine of a socket with one request pipe and one response
// pipe, answering in order within an ID: the PVCI, BVCI, WISHBONE and
// AVCI masters embed it. Target is its memory-side twin, one request
// served at a time: the AHB, PVCI, BVCI and WISHBONE memories embed it.
// NewestPick is the ID-preserving reorder the AXI and AVCI memories
// share. The memory-side arithmetic and state (burst addressing,
// exclusive reservations, read-buffer rings) live in internal/mem.
package protocols
