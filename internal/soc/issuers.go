package soc

import (
	"gonoc/internal/ip"
	"gonoc/internal/noctypes"
)

// Masters is the socket order of a build: the seven historical masters,
// then "wb" when the Wishbone master is present. Generators are built,
// and reports list sockets, in this order.
func Masters(wishbone bool) []string {
	m := []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"}
	if wishbone {
		m = append(m, "wb")
	}
	return m
}

// Memory is one memory target of a build: the socket it speaks, the
// base of its MemSize-byte window, and its fabric node.
type Memory struct {
	Socket string
	Base   uint64
	Node   noctypes.NodeID
}

// Memories is the address map of a build, in address order: the four
// historical memories, then "wb" when the Wishbone memory is present.
// The map names each window "<socket>-mem", and Stores keys each
// backing by socket.
func Memories(wishbone bool) []Memory {
	m := []Memory{
		{"axi", BaseAXIMem, NodeAXIMem},
		{"ocp", BaseOCPMem, NodeOCPMem},
		{"ahb", BaseAHBMem, NodeAHBMem},
		{"bvci", BaseBVCIMem, NodeBVCIMem},
	}
	if wishbone {
		m = append(m, Memory{"wb", BaseWBMem, NodeWBMem})
	}
	return m
}

// Sockets returns every master engine behind its ip.Socket adapter,
// keyed by socket name. The Wishbone master exists only when the system
// was built with Config.Wishbone; callers discover it by key presence.
func (s *System) Sockets() map[string]ip.Socket {
	socks := map[string]ip.Socket{
		"axi": ip.AXI(s.AXIM), "ocp": ip.OCP(s.OCPM), "ahb": ip.AHB(s.AHBM),
		"pvci": ip.PVCI(s.PVCIM), "bvci": ip.BVCI(s.BVCIM), "avci": ip.AVCI(s.AVCIM),
		"prop": ip.Prop(s.PropM),
	}
	if s.WBM != nil {
		socks["wb"] = ip.WB(s.WBM)
	}
	return socks
}

// Issuer performs one transaction on a socket: a write or read of n
// bytes at addr, with done invoked on completion (ok=false on a
// protocol-level error response).
//
// addr should be size-aligned and inside a mapped region. n is rounded
// up to whole beats: 4-byte beats on every socket but the proprietary
// streamer, which is byte-granular; PVCI, a single-word socket, clamps
// to one beat.
type Issuer func(write bool, addr uint64, n int, done func(ok bool))

// Issuers wraps ip.Socket.Issue as an Issuer per socket, keyed like
// Sockets. Each Issuer numbers its own transactions, so a socket that
// interleaves rotates through its IDs.
func (s *System) Issuers() map[string]Issuer {
	issuers := map[string]Issuer{}
	for name, sock := range s.Sockets() {
		issuers[name] = (&issuer{sock: sock}).issue
	}
	return issuers
}

// issuer is one socket's Issuer: its transaction count and a free list
// of the contexts of its transactions in flight.
type issuer struct {
	sock ip.Socket
	k    int
	free []*issued
}

// issued is one Issuer transaction in flight. Its completion is bound
// once, when it is made, and it returns to the free list before the
// caller's done runs, which may issue again.
type issued struct {
	is       *issuer
	done     func(ok bool)
	complete ip.Done
}

func (is *issuer) issue(write bool, addr uint64, n int, done func(ok bool)) {
	var c *issued
	if k := len(is.free); k > 0 {
		c, is.free = is.free[k-1], is.free[:k-1]
	} else {
		c = &issued{is: is}
		c.complete = c.onComplete
	}
	c.done = done
	is.k++
	is.sock.Issue(is.k-1, write, addr, n, c.complete)
}

func (c *issued) onComplete(_ []byte, err bool) {
	done := c.done
	c.done = nil
	c.is.free = append(c.is.free, c)
	done(!err)
}
