// Package niu implements the network interface units that terminate IP
// sockets on the NoC — as one protocol-neutral engine pair plus a thin
// adapter per socket protocol.
//
// The paper's §2 recipe is that one VC-neutral transaction layer
// terminates any IP socket behind a thin converter; this package is
// that recipe factored into code. MasterEngine and SlaveEngine own
// everything every NIU shares — the core.Table bookkeeping, tag and
// ordering policy, the legacy-lock token protocol, packet encode and
// decode, priority defaulting, response routing, service gating and the
// exclusive monitor — while each socket protocol supplies only a small
// adapter (decode socket request → core.Request, encode core.Response →
// socket signals). Adding a protocol to the NoC is writing one
// MasterAdapter and/or one SlaveAdapter. A single-channel socket — one
// request pipe and one in-order response pipe — writes no MasterAdapter
// at all: it hands the shared adapter in single.go a request converter
// and a response constructor. The Wishbone adapters in wishbone.go are
// the worked example, and the top-level README's "Adding a protocol
// adapter" section is the walkthrough.
//
// One adapter per socket, two far sides: a master adapter issues into a
// FarSide, which is either a MasterEngine or a bridge of the Fig-2 bus
// (internal/bus), and a slave adapter executes what a SlaveEngine or a
// bus slave bridge hands it. The bus runs these same adapters and
// decodes no socket of its own: the features the bus cannot carry are
// dropped by its bridge's Issue, never by an adapter.
//
// Both engines emit transaction-lifecycle spans (issue → complete on
// the master side, admit → respond on the slave side) into the fabric's
// instrumentation probe when one is attached — see internal/obs and
// transport.Network.SetProbe; with no probe attached the hooks are
// single nil checks.
package niu
