package transport

import (
	"fmt"
	"slices"
	"strings"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// This file builds fabrics. Topology choice is a transport-layer concern
// invisible to the transaction layer; all builders produce the same
// Network/Endpoint API.

// Topology names a fabric shape. Every layer above transport selects
// its fabric by this name, and Build makes it.
type Topology uint8

// Topologies, in display order.
const (
	Crossbar Topology = iota
	Mesh
	Torus
	Ring
	Tree
)

var topologyNames = [...]string{Crossbar: "crossbar", Mesh: "mesh", Torus: "torus", Ring: "ring", Tree: "tree"}

// Topologies returns every topology in display order.
func Topologies() []Topology { return []Topology{Crossbar, Mesh, Torus, Ring, Tree} }

// String renders the topology's CLI and scenario name.
func (t Topology) String() string {
	if int(t) < len(topologyNames) {
		return topologyNames[t]
	}
	return fmt.Sprintf("topology%d", uint8(t))
}

// ParseTopology resolves a topology name; "xbar" is accepted for the
// crossbar.
func ParseTopology(s string) (Topology, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "xbar" {
		return Crossbar, nil
	}
	for t, n := range topologyNames {
		if n == name {
			return Topology(t), nil
		}
	}
	return 0, fmt.Errorf("transport: unknown topology %q (want crossbar|mesh|torus|ring|tree)", s)
}

// Shape is a fabric's topology and its dimensions: W x H routers for a
// mesh or torus, Fanout endpoints per leaf switch for a tree. The other
// topologies ignore the dimensions.
type Shape struct {
	Topology Topology
	W, H     int
	Fanout   int
}

// Build makes the fabric sh describes over nodes. A mesh or torus
// places node i at (i mod W, i / W); it panics when W x H cannot hold
// every node.
func Build(clk *sim.Clock, cfg NetConfig, sh Shape, nodes []noctypes.NodeID) *Network {
	switch sh.Topology {
	case Mesh, Torus:
		if sh.W*sh.H < len(nodes) {
			panic(fmt.Sprintf("transport: %dx%d %s cannot hold %d nodes", sh.W, sh.H, sh.Topology, len(nodes)))
		}
		spec := MeshSpec{W: sh.W, H: sh.H, Nodes: map[noctypes.NodeID]Coord{}}
		for i, n := range nodes {
			spec.Nodes[n] = Coord{X: i % sh.W, Y: i / sh.W}
		}
		if sh.Topology == Torus {
			return NewTorus(clk, cfg, spec)
		}
		return NewMesh(clk, cfg, spec)
	case Ring:
		return NewRing(clk, cfg, nodes)
	case Tree:
		return NewTree(clk, cfg, sh.Fanout, nodes)
	default:
		return NewCrossbar(clk, cfg, nodes)
	}
}

// WholePacketDepth returns the lane depth, in flits, that a fabric of
// topology t under cfg needs to buffer a packet of payloadBytes whole,
// or 0 when its lanes need no minimum. Store-and-forward switches hold
// a whole packet before forwarding it, and the ring's and torus's
// cut-through admission grants an output only with room for the whole
// packet downstream; TrySend panics on a packet deeper than the lanes.
func WholePacketDepth(t Topology, cfg NetConfig, payloadBytes int) int {
	if cfg.Mode != StoreAndForward && t != Ring && t != Torus {
		return 0
	}
	return FlitCount(HeaderBytes+payloadBytes, cfg.WithDefaults().FlitBytes)
}

// NewCrossbar builds a single-switch fabric: every node one hop from
// every other. This is the smallest real NoC and the default fabric for
// unit tests.
func NewCrossbar(clk *sim.Clock, cfg NetConfig, nodes []noctypes.NodeID) *Network {
	n := newNetwork(clk, cfg, nodes)
	r := newRouter(n, "xbar", len(nodes))
	for i, node := range nodes {
		r.setRoute(node, i)
		n.attach(node, r, i)
	}
	return n
}

// Coord places a node on a mesh.
type Coord struct{ X, Y int }

// MeshSpec describes a W x H mesh with one endpoint per router.
type MeshSpec struct {
	W, H  int
	Nodes map[noctypes.NodeID]Coord
}

// Mesh port indices.
const (
	portLocal = 0
	portEast  = 1
	portWest  = 2
	portNorth = 3 // -Y
	portSouth = 4 // +Y
	meshPorts = 5
)

// NewMesh builds a 2-D mesh with dimension-ordered (XY) routing, which is
// deadlock-free for wormhole switching. Y grows downward.
func NewMesh(clk *sim.Clock, cfg NetConfig, spec MeshSpec) *Network {
	return newGrid(clk, cfg, spec, Mesh)
}

// NewTorus builds a 2-D torus: the mesh of NewMesh (same MeshSpec,
// same port layout) plus wraparound links in every dimension of size >=
// 2, with dimension-ordered routing that takes the shorter way around
// each ring (half-way ties split by parity). Every dimension is a pair
// of unidirectional rings, so deadlock freedom uses NewRing's recipe
// per dimension: dateline VC switching — packets enter each dimension
// on VC0 (the dimension turn resets the VC) and move to VC1 crossing
// that dimension's wrap link — plus virtual-cut-through admission so a
// held output never stalls mid-packet (see NewRing). As there, the
// escape lane doubles as the lock VC, so tori do not support lock
// sequences.
func NewTorus(clk *sim.Clock, cfg NetConfig, spec MeshSpec) *Network {
	return newGrid(clk, cfg, spec, Torus)
}

// newGrid builds the W x H grid of NewMesh (topo Mesh) or NewTorus
// (topo Torus): one switch per position, named r<x>.<y> (t<x>.<y> on a
// torus) and indexed y*W+x, linked both ways to its East and South
// neighbours, with every node attached to its position's local port in
// NodeID order. A torus adds the wrap links that close each dimension
// of size >= 2 into a ring, routes the shorter way around, and switches
// VCs at the datelines.
func newGrid(clk *sim.Clock, cfg NetConfig, spec MeshSpec, topo Topology) *Network {
	torus := topo == Torus
	W, H := spec.W, spec.H
	if W <= 0 || H <= 0 {
		panic(fmt.Sprintf("transport: %v dimensions must be positive", topo))
	}
	if torus && cfg.LegacyLock {
		panic("transport: torus fabrics do not support the legacy-lock service (the lock VC is the dateline escape lane)")
	}
	ids := make([]noctypes.NodeID, 0, len(spec.Nodes))
	for node := range spec.Nodes {
		ids = append(ids, node)
	}
	slices.Sort(ids)
	pos := make([]Coord, len(ids))
	for i, node := range ids {
		c := spec.Nodes[node]
		if c.X < 0 || c.X >= W || c.Y < 0 || c.Y >= H {
			panic(fmt.Sprintf("transport: node %v placed off-%v at (%d,%d)", node, topo, c.X, c.Y))
		}
		pos[i] = c
	}

	n := newNetwork(clk, cfg, ids)
	n.cutThrough = torus
	prefix := "r"
	if torus {
		prefix = "t"
	}
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			newRouter(n, fmt.Sprintf("%s%d.%d", prefix, x, y), meshPorts)
		}
	}
	at := func(x, y int) *Router { return n.routers[y*W+x] }
	route := meshRoute
	if torus {
		route = torusRoute(W, H)
	}
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			// Links to the East and South neighbours, both ways; on a
			// torus the last column and row wrap to the first (with two
			// columns, the wrap link is the second link of the one pair).
			// A dimension of size 1 stays unwired.
			r := at(x, y)
			if x+1 < W || torus && W > 1 {
				e := at((x+1)%W, y)
				n.link(r, portEast, e, portWest)
				n.link(e, portWest, r, portEast)
			}
			if y+1 < H || torus && H > 1 {
				s := at(x, (y+1)%H)
				n.link(r, portSouth, s, portNorth)
				n.link(s, portNorth, r, portSouth)
			}
			// Routing table: X first, then Y, then local.
			for i, node := range ids {
				r.setRoute(node, route(x, y, pos[i]))
			}
			if !torus {
				continue
			}
			// Dateline VC switching per dimension. Dimension-ordered
			// routing means Y outputs are entered from local or X inputs
			// (a turn, which resets to VC0) or continued from Y inputs
			// (which keeps the VC).
			if W > 1 {
				r.dateline(portEast, x == W-1, portLocal)
				r.dateline(portWest, x == 0, portLocal)
			}
			if H > 1 {
				r.dateline(portSouth, y == H-1, portLocal, portEast, portWest)
				r.dateline(portNorth, y == 0, portLocal, portEast, portWest)
			}
		}
	}
	for i, node := range ids {
		n.attach(node, at(pos[i].X, pos[i].Y), portLocal)
	}
	return n
}

// meshRoute is the mesh's XY route from the switch at (x, y) to a node
// at c.
func meshRoute(x, y int, c Coord) int {
	switch {
	case c.X > x:
		return portEast
	case c.X < x:
		return portWest
	case c.Y > y:
		return portSouth
	case c.Y < y:
		return portNorth
	}
	return portLocal
}

// torusRoute returns a W x H torus's route function: X ring first, then
// Y ring, the shorter way around each. Half-way-around ties split by
// parity, as in NewRing, so both directions of each ring carry equal
// load.
func torusRoute(W, H int) func(x, y int, c Coord) int {
	return func(x, y int, c Coord) int {
		dx := (c.X - x + W) % W
		dy := (c.Y - y + H) % H
		switch {
		case dx != 0 && (2*dx < W || 2*dx == W && (x+c.Y)&1 == 0):
			return portEast
		case dx != 0:
			return portWest
		case dy != 0 && (2*dy < H || 2*dy == H && (y+c.X)&1 == 0):
			return portSouth
		case dy != 0:
			return portNorth
		}
		return portLocal
	}
}

// dateline sets the VC rewrites of a ring or torus switch's output out:
// when out is the dimension's wrap link every arrival leaves on VC1,
// the escape lane; otherwise packets entering the dimension from the
// inputs in enter start on VC0, and packets continuing along it keep
// their VC.
func (r *Router) dateline(out int, wrap bool, enter ...int) {
	if wrap {
		for in := range r.outHold {
			r.setVCOut(in, out, 1)
		}
		return
	}
	for _, in := range enter {
		r.setVCOut(in, out, 0)
	}
}

// Ring port indices.
const (
	ringLocal = 0
	ringCW    = 1 // toward index+1 (mod N)
	ringCCW   = 2 // toward index-1 (mod N)
	ringPorts = 3
)

// NewRing builds a bidirectional ring with shortest-path routing
// (half-way ties split by parity). Each direction is a unidirectional
// ring of links, which closes a deadlock cycle; the builder breaks it
// with two cooperating mechanisms. Dateline VC switching (the classic
// Dally/Seitz scheme over the fabric's two VC lanes): packets enter the
// ring on VC0 and switch to VC1 crossing the wrap link (N-1 -> 0
// clockwise, 0 -> N-1 counter-clockwise); minimal routing never crosses
// a dateline twice, so the VC1 buffer chain is acyclic. Virtual-cut-
// through admission (Network.cutThrough): outputs are granted only
// with whole-packet space downstream, so a held output always drains
// and the shared physical link cannot re-close the cycle the VCs break
// (BufDepth must therefore hold the largest packet, checked at
// TrySend). The VC rewrite repurposes the lane the legacy-lock service
// uses on other fabrics, so rings do not support lock sequences.
func NewRing(clk *sim.Clock, cfg NetConfig, nodes []noctypes.NodeID) *Network {
	N := len(nodes)
	if N < 2 {
		panic(fmt.Sprintf("transport: ring needs at least 2 nodes, got %d", N))
	}
	if cfg.LegacyLock {
		panic("transport: ring fabrics do not support the legacy-lock service (the lock VC is the dateline escape lane)")
	}
	n := newNetwork(clk, cfg, nodes)
	n.cutThrough = true
	for i := range nodes {
		newRouter(n, fmt.Sprintf("ring%d", i), ringPorts)
	}
	// Neighbour links: lanes[p] receives from the neighbour in direction p.
	for i, r := range n.routers {
		nxt := n.routers[(i+1)%N]
		n.link(r, ringCW, nxt, ringCCW)
		n.link(nxt, ringCCW, r, ringCW)
	}
	// Routing tables: shortest direction. Half-way-around ties split by
	// source parity so the two unidirectional rings carry equal load
	// under uniform traffic (sending every tie clockwise would load that
	// ring ~2x; source+destination parity would be degenerate, because
	// a tie destination is i+N/2 and (2i+N/2) mod 2 is the same for
	// every i). Ties only arise at the source router — every later hop
	// is strictly closer — so the split is consistent along the path,
	// still minimal, and the dateline argument is unaffected.
	for i, r := range n.routers {
		for j, node := range nodes {
			fwd := (j - i + N) % N
			switch {
			case fwd == 0:
				r.setRoute(node, ringLocal)
			case 2*fwd < N || (2*fwd == N && i&1 == 0):
				r.setRoute(node, ringCW)
			default:
				r.setRoute(node, ringCCW)
			}
		}
		// Dateline VC switching: injected packets start on VC0; crossing
		// the wrap link in either direction moves them to VC1.
		r.dateline(ringCW, i == N-1, ringLocal)
		r.dateline(ringCCW, i == 0, ringLocal)
	}
	for i, node := range nodes {
		n.attach(node, n.routers[i], ringLocal)
	}
	return n
}

// NewTree builds a two-level tree: leaf switches host up to fanout
// endpoints each and connect to one root switch. Cycle-free, so
// deadlock-free; the root is the bandwidth bottleneck by construction —
// useful for QoS experiments.
func NewTree(clk *sim.Clock, cfg NetConfig, fanout int, nodes []noctypes.NodeID) *Network {
	if fanout <= 0 {
		panic("transport: tree fanout must be positive")
	}
	n := newNetwork(clk, cfg, nodes)
	numLeaves := (len(nodes) + fanout - 1) / fanout
	root := newRouter(n, "root", numLeaves)
	for l := 0; l < numLeaves; l++ {
		local := nodes[l*fanout : min((l+1)*fanout, len(nodes))]
		leaf := newRouter(n, fmt.Sprintf("leaf%d", l), len(local)+1)
		up := len(local)
		n.link(leaf, up, root, l)
		n.link(root, l, leaf, up)
		// Every destination leaves through the up port, but the leaf's
		// own nodes.
		for _, node := range nodes {
			leaf.setRoute(node, up)
		}
		for i, node := range local {
			leaf.setRoute(node, i)
			root.setRoute(node, l)
			n.attach(node, leaf, i)
		}
	}
	return n
}
