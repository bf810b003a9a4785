package transport

import (
	"fmt"
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
	r := newRouter(n, "xbar", len(nodes), RouterConfig{Mode: n.cfg.Mode, BufDepth: n.cfg.BufDepth, QoS: n.cfg.QoS, FlitBytes: n.cfg.FlitBytes})
	r.index = 0
	n.routers = []*Router{r}
	n.adj = [][]int{make([]int, len(nodes))}
	for i, node := range nodes {
		n.adj[0][i] = -1
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
	if spec.W <= 0 || spec.H <= 0 {
		panic("transport: mesh dimensions must be positive")
	}
	ids := sortedNodes(spec.Nodes)
	n := newNetwork(clk, cfg, ids)
	rcfg := RouterConfig{Mode: n.cfg.Mode, BufDepth: n.cfg.BufDepth, QoS: n.cfg.QoS, FlitBytes: n.cfg.FlitBytes}
	idx := func(x, y int) int { return y*spec.W + x }

	n.routers = make([]*Router, spec.W*spec.H)
	n.adj = make([][]int, spec.W*spec.H)
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := newRouter(n, fmt.Sprintf("r%d.%d", x, y), meshPorts, rcfg)
			r.index = idx(x, y)
			n.routers[r.index] = r
			n.adj[r.index] = []int{-1, -1, -1, -1, -1}
		}
	}
	// Wire neighbour links: output port of A is the matching input lanes
	// of B.
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := n.routers[idx(x, y)]
			if x+1 < spec.W {
				e := n.routers[idx(x+1, y)]
				r.connectOut(portEast, [NumVCs]*flitQ{e.lanes[portWest][0], e.lanes[portWest][1]})
				n.adj[r.index][portEast] = e.index
				e.connectOut(portWest, [NumVCs]*flitQ{r.lanes[portEast][0], r.lanes[portEast][1]})
				n.adj[e.index][portWest] = r.index
			}
			if y+1 < spec.H {
				s := n.routers[idx(x, y+1)]
				r.connectOut(portSouth, [NumVCs]*flitQ{s.lanes[portNorth][0], s.lanes[portNorth][1]})
				n.adj[r.index][portSouth] = s.index
				s.connectOut(portNorth, [NumVCs]*flitQ{r.lanes[portSouth][0], r.lanes[portSouth][1]})
				n.adj[s.index][portNorth] = r.index
			}
		}
	}
	// Routing tables: XY (X first, then Y), then local.
	for node, c := range spec.Nodes {
		if c.X < 0 || c.X >= spec.W || c.Y < 0 || c.Y >= spec.H {
			panic(fmt.Sprintf("transport: node %v placed off-mesh at (%d,%d)", node, c.X, c.Y))
		}
	}
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := n.routers[idx(x, y)]
			for node, c := range spec.Nodes {
				switch {
				case c.X > x:
					r.setRoute(node, portEast)
				case c.X < x:
					r.setRoute(node, portWest)
				case c.Y > y:
					r.setRoute(node, portSouth)
				case c.Y < y:
					r.setRoute(node, portNorth)
				default:
					r.setRoute(node, portLocal)
				}
			}
		}
	}
	// Attach endpoints in a deterministic order.
	for _, node := range ids {
		c := spec.Nodes[node]
		n.attach(node, n.routers[idx(c.X, c.Y)], portLocal)
	}
	return n
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
// through admission (RouterConfig.CutThrough): outputs are granted only
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
	rcfg := RouterConfig{Mode: n.cfg.Mode, BufDepth: n.cfg.BufDepth, QoS: n.cfg.QoS,
		CutThrough: true, FlitBytes: n.cfg.FlitBytes}

	n.routers = make([]*Router, N)
	n.adj = make([][]int, N)
	for i := range nodes {
		r := newRouter(n, fmt.Sprintf("ring%d", i), ringPorts, rcfg)
		r.index = i
		n.routers[i] = r
		n.adj[i] = []int{-1, -1, -1}
	}
	// Neighbour links: lanes[p] receives from the neighbour in direction p.
	for i, r := range n.routers {
		nxt := n.routers[(i+1)%N]
		r.connectOut(ringCW, [NumVCs]*flitQ{nxt.lanes[ringCCW][0], nxt.lanes[ringCCW][1]})
		n.adj[i][ringCW] = nxt.index
		nxt.connectOut(ringCCW, [NumVCs]*flitQ{r.lanes[ringCW][0], r.lanes[ringCW][1]})
		n.adj[nxt.index][ringCCW] = i
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
	}
	// Dateline VC switching: injected packets start on VC0; crossing the
	// wrap link in either direction moves them to VC1.
	for _, r := range n.routers {
		r.setVCOut(ringLocal, ringCW, 0)
		r.setVCOut(ringLocal, ringCCW, 0)
	}
	for p := 0; p < ringPorts; p++ {
		n.routers[N-1].setVCOut(p, ringCW, 1)
		n.routers[0].setVCOut(p, ringCCW, 1)
	}
	for i, node := range nodes {
		n.attach(node, n.routers[i], ringLocal)
	}
	return n
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
	if spec.W <= 0 || spec.H <= 0 {
		panic("transport: torus dimensions must be positive")
	}
	if cfg.LegacyLock {
		panic("transport: torus fabrics do not support the legacy-lock service (the lock VC is the dateline escape lane)")
	}
	ids := sortedNodes(spec.Nodes)
	n := newNetwork(clk, cfg, ids)
	n.cutThrough = true
	rcfg := RouterConfig{Mode: n.cfg.Mode, BufDepth: n.cfg.BufDepth, QoS: n.cfg.QoS,
		CutThrough: true, FlitBytes: n.cfg.FlitBytes}
	idx := func(x, y int) int { return ((y+spec.H)%spec.H)*spec.W + (x+spec.W)%spec.W }

	n.routers = make([]*Router, spec.W*spec.H)
	n.adj = make([][]int, spec.W*spec.H)
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := newRouter(n, fmt.Sprintf("t%d.%d", x, y), meshPorts, rcfg)
			r.index = idx(x, y)
			n.routers[r.index] = r
			n.adj[r.index] = []int{-1, -1, -1, -1, -1}
		}
	}
	// Wire every router's own outputs; wrap links close each row and
	// column into a ring. A dimension of size 1 stays unwired.
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := n.routers[idx(x, y)]
			if spec.W > 1 {
				e := n.routers[idx(x+1, y)]
				r.connectOut(portEast, [NumVCs]*flitQ{e.lanes[portWest][0], e.lanes[portWest][1]})
				n.adj[r.index][portEast] = e.index
				w := n.routers[idx(x-1, y)]
				r.connectOut(portWest, [NumVCs]*flitQ{w.lanes[portEast][0], w.lanes[portEast][1]})
				n.adj[r.index][portWest] = w.index
			}
			if spec.H > 1 {
				s := n.routers[idx(x, y+1)]
				r.connectOut(portSouth, [NumVCs]*flitQ{s.lanes[portNorth][0], s.lanes[portNorth][1]})
				n.adj[r.index][portSouth] = s.index
				nn := n.routers[idx(x, y-1)]
				r.connectOut(portNorth, [NumVCs]*flitQ{nn.lanes[portSouth][0], nn.lanes[portSouth][1]})
				n.adj[r.index][portNorth] = nn.index
			}
		}
	}
	// Routing tables: X ring first, then Y ring, shorter way around each.
	for node, c := range spec.Nodes {
		if c.X < 0 || c.X >= spec.W || c.Y < 0 || c.Y >= spec.H {
			panic(fmt.Sprintf("transport: node %v placed off-torus at (%d,%d)", node, c.X, c.Y))
		}
	}
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := n.routers[idx(x, y)]
			for node, c := range spec.Nodes {
				dx := ((c.X-x)%spec.W + spec.W) % spec.W
				dy := ((c.Y-y)%spec.H + spec.H) % spec.H
				// Half-way-around ties split by parity, as in NewRing,
				// so both directions of each ring carry equal load.
				goEast := 2*dx < spec.W || (2*dx == spec.W && (x+c.Y)&1 == 0)
				goSouth := 2*dy < spec.H || (2*dy == spec.H && (y+c.X)&1 == 0)
				switch {
				case dx != 0 && goEast:
					r.setRoute(node, portEast)
				case dx != 0:
					r.setRoute(node, portWest)
				case dy != 0 && goSouth:
					r.setRoute(node, portSouth)
				case dy != 0:
					r.setRoute(node, portNorth)
				default:
					r.setRoute(node, portLocal)
				}
			}
		}
	}
	// Dateline VC switching per dimension. Dimension-ordered routing
	// means Y outputs are entered from local or X inputs (a turn, which
	// resets to VC0) or continued from Y inputs (which keeps the VC); on
	// a dateline output every arrival leaves on VC1.
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r := n.routers[idx(x, y)]
			if spec.W > 1 {
				for _, d := range []struct {
					out      int
					dateline bool
				}{{portEast, x == spec.W-1}, {portWest, x == 0}} {
					if d.dateline {
						for in := 0; in < meshPorts; in++ {
							r.setVCOut(in, d.out, 1)
						}
					} else {
						r.setVCOut(portLocal, d.out, 0)
					}
				}
			}
			if spec.H > 1 {
				for _, d := range []struct {
					out      int
					dateline bool
				}{{portSouth, y == spec.H-1}, {portNorth, y == 0}} {
					if d.dateline {
						for in := 0; in < meshPorts; in++ {
							r.setVCOut(in, d.out, 1)
						}
					} else {
						r.setVCOut(portLocal, d.out, 0)
						r.setVCOut(portEast, d.out, 0)
						r.setVCOut(portWest, d.out, 0)
					}
				}
			}
		}
	}
	for _, node := range ids {
		c := spec.Nodes[node]
		n.attach(node, n.routers[idx(c.X, c.Y)], portLocal)
	}
	return n
}

func sortedNodes(m map[noctypes.NodeID]Coord) []noctypes.NodeID {
	out := make([]noctypes.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
	rcfg := RouterConfig{Mode: n.cfg.Mode, BufDepth: n.cfg.BufDepth, QoS: n.cfg.QoS, FlitBytes: n.cfg.FlitBytes}

	numLeaves := (len(nodes) + fanout - 1) / fanout
	root := newRouter(n, "root", numLeaves, rcfg)
	root.index = 0
	n.routers = append(n.routers, root)
	n.adj = append(n.adj, make([]int, numLeaves))

	for l := 0; l < numLeaves; l++ {
		lo := l * fanout
		hi := lo + fanout
		if hi > len(nodes) {
			hi = len(nodes)
		}
		local := nodes[lo:hi]
		leaf := newRouter(n, fmt.Sprintf("leaf%d", l), len(local)+1, rcfg)
		leaf.index = len(n.routers)
		n.routers = append(n.routers, leaf)
		n.adj = append(n.adj, make([]int, len(local)+1))
		upPort := len(local)

		// Leaf <-> root links.
		leaf.connectOut(upPort, [NumVCs]*flitQ{root.lanes[l][0], root.lanes[l][1]})
		n.adj[leaf.index][upPort] = 0
		root.connectOut(l, [NumVCs]*flitQ{leaf.lanes[upPort][0], leaf.lanes[upPort][1]})
		n.adj[0][l] = leaf.index

		for i, node := range local {
			n.adj[leaf.index][i] = -1
			leaf.setRoute(node, i)
			root.setRoute(node, l)
			n.attach(node, leaf, i)
		}
		// Non-local destinations leave through the up port.
		for _, other := range nodes {
			isLocal := false
			for _, ln := range local {
				if ln == other {
					isLocal = true
					break
				}
			}
			if !isLocal {
				leaf.setRoute(other, upPort)
			}
		}
	}
	return n
}
