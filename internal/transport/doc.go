// Package transport implements the NoC transport layer: packet format,
// flits, wormhole and store-and-forward switches, quality-of-service
// arbitration, legacy-lock path reservation, and topology builders
// (crossbar, mesh, torus, ring, tree).
//
// The transport layer is completely transaction-unaware (paper §1): it
// imports no transaction-layer types. A packet carries the header triple
// the paper names — destination SlvAddr, source MstAddr, Tag — plus a
// priority, the lock flags, one byte of configuration-defined user bits
// ("NoC services"), and an opaque payload. Whether the payload is a read,
// a write burst, or anything else is invisible here; conversely the
// transaction layer cannot tell whether the fabric switched its packets
// wormhole or store-and-forward (experiment E3 proves this).
//
// The five topology builders share one Network/Router/Endpoint API, so
// topology — like switching mode — is a pure transport-layer choice.
// This package owns that choice: Topology names the shapes (ParseTopology,
// String, Topologies), Build makes a fabric from a Shape (a topology and
// its dimensions) and a node list, and WholePacketDepth gives the lane
// depth of fabrics that buffer whole packets. The traffic, soc and
// scenario layers and the CLIs select fabrics only through these. Mesh
// routing is dimension-ordered (XY); torus and ring add wraparound
// links and stay deadlock-free by the classic dateline scheme over the
// two VC lanes combined with virtual-cut-through output admission;
// the tree is cycle-free with the root as the deliberate bottleneck.
// NetConfig carries the fabric-wide knobs (flit width, buffer depth,
// switching mode, QoS, send-queue depth, legacy lock), and every
// switch reads them, and cut-through admission, from its Network:
// cut-through is a property of the fabric, which the ring and torus
// builders set.
//
// The builders share each building step. newNetwork makes every
// endpoint's ejection buffer and send queue in one piece per fabric;
// newRouter makes a switch, gives it its index, and carves its tables,
// each one flat slice indexed by lane (port*NumVCs+vc); link wires one
// switch output to a neighbour's input lanes, and a route walk follows
// that hop through the lanes' switch; attach connects an endpoint.
// Mesh and torus are one grid builder: a torus is the mesh plus wrap
// links, a shorter-way route function and dateline VC rewrites.
//
// A flit store is one ring of pointer-free slot structs plus a block of
// payload bytes, so a flit moves one hop as one struct copy and one
// byte copy. Every flit of a packet carries its header: a switch reads
// a packet's lock flags from the tail it forwards.
//
// Endpoint.TrySend is the one send path at both fidelities: it assigns
// the packet ID, checks and sizes the packet, and then serializes it
// into flit slots or, on a hybrid fabric's cold route, hands it to the
// analytic engine; both paths count injection and delivery through the
// same Endpoint methods. Hybrid's fallback tuning is constants, not
// configuration.
//
// Per-cycle and per-packet work follows state the fabric already
// keeps. Each switch keeps an occupancy mask of its input lanes: a
// lane's commit sets its bit when the lane fills, and the pop that
// empties it clears the bit, so switch allocation visits only lanes
// with a head flit, in the same (port, VC) order as a full scan. A
// switch whose mask is zero, that holds no output and whose probe does
// not sample buffers has nothing to do, and the fabric tick does not
// evaluate it. A lane joins the network's commit list on its first
// push or pop of an edge, and only listed lanes commit: an untouched
// lane's commit would change nothing. Under sim.Clock's
// evaluate-everything reference mode the fabric evaluates every switch
// and commits every lane, which is what the differential tests compare
// against. A packet's queued and injected cycles ride in its head flit
// to the ejecting endpoint, which reports them in the TransitRecord.
// Routing tables are slices indexed by NodeID, filled once by the
// topology builder. A hybrid fabric (fidelity.go) prices a packet over
// its route, walked once per endpoint pair into a flat arena, and
// fires its scheduled events from a per-cycle calendar, by cycle and
// then in the order they were scheduled.
//
// The fabric is observable without being perturbable: Network.SetProbe
// attaches an internal/obs probe, after which switches report flits,
// stalls and VC allocations, and buffer occupancy if the probe reads it
// (obs.SamplesBuffers), and endpoints report packet lifecycles
// (queued/injected/ejected). Only a sampling probe keeps an empty
// fabric awake. With no probe attached — the default — every hook is a
// single branch, pinned by the CI allocation guard.
package transport
