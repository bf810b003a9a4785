// Package bus implements the paper's Fig-2 baseline: a traditional
// shared-bus interconnect with its own reference socket (AHB-like),
// which IP blocks with foreign sockets reach through bridges. Every
// bridge is one crossing: a single transaction in flight, carried in
// the transaction layer's terms, that pays a conversion latency each way
// and drops the features the reference socket cannot express —
// out-of-order responses, threads, posted writes, exclusive access,
// FIXED bursts, byte enables, QoS. The bus decodes no socket: a bridge
// runs the socket's adapter from internal/niu, the one its NIU runs on
// the NoC — one adapter per socket, two far sides. Experiment E2
// measures these penalties against the Fig-1 NoC.
package bus

import (
	"fmt"

	"gonoc/internal/core"
	"gonoc/internal/noctypes"
	"gonoc/internal/protocols/ahb"
	"gonoc/internal/sim"
)

// BusStats aggregates interconnect activity.
type BusStats struct {
	Grants       []uint64 // per master
	BusyCycles   uint64
	IdleCycles   uint64
	LockCycles   uint64 // cycles the bus was locked to one master
	DecodeErrors uint64
}

// Bus is a single-outstanding shared bus: one transaction occupies the
// address+data path from grant to response, the classic AHB 2.0
// behaviour that makes bridged systems serialize.
type Bus struct {
	amap *core.AddressMap

	masters []*ahb.Port // bus side of each master socket
	slaves  map[noctypes.NodeID]*ahb.Port

	cur        *busTxn
	defaultRsp bool // current transaction is answered by the default slave
	lockOwner  int  // master index holding HMASTLOCK, -1 none
	rr         int

	stats BusStats
}

type busTxn struct {
	master int
	slave  noctypes.NodeID
	req    ahb.Req
}

// New creates a bus over the given address map and registers it on clk.
// It arbitrates round robin among the masters that have a request.
func New(clk *sim.Clock, amap *core.AddressMap) *Bus {
	b := &Bus{amap: amap, slaves: make(map[noctypes.NodeID]*ahb.Port), lockOwner: -1}
	clk.Register(b)
	return b
}

// AddMaster attaches a master-side AHB socket and returns its index.
// The caller (a native AHB master engine or a bridge) drives the other
// side of the port.
func (b *Bus) AddMaster(port *ahb.Port) int {
	b.masters = append(b.masters, port)
	b.stats.Grants = append(b.stats.Grants, 0)
	return len(b.masters) - 1
}

// AddSlave attaches a slave-side AHB socket for the address-map node id.
func (b *Bus) AddSlave(node noctypes.NodeID, port *ahb.Port) {
	if _, dup := b.slaves[node]; dup {
		panic(fmt.Sprintf("bus: slave %v attached twice", node))
	}
	b.slaves[node] = port
}

// Stats returns a copy of the counters.
func (b *Bus) Stats() BusStats {
	s := b.stats
	s.Grants = append([]uint64(nil), b.stats.Grants...)
	return s
}

// LockOwner returns the locked master index, or -1.
func (b *Bus) LockOwner() int { return b.lockOwner }

// Eval implements sim.Clocked.
func (b *Bus) Eval(cycle int64) {
	if b.cur != nil {
		b.stats.BusyCycles++
		if b.lockOwner >= 0 {
			b.stats.LockCycles++
		}
		b.finish()
		if b.cur != nil {
			return
		}
		// Transaction completed this cycle; the freed bus re-arbitrates
		// next cycle (turnaround), matching HREADY retiming.
		return
	}
	b.stats.IdleCycles++
	if b.lockOwner >= 0 {
		b.stats.LockCycles++
	}
	b.grant()
}

// finish completes the in-flight transaction when its response arrives.
func (b *Bus) finish() {
	t := b.cur
	mp := b.masters[t.master]
	if !mp.Rsp.CanPush(1) {
		return
	}
	var rsp ahb.Rsp
	if b.defaultRsp {
		rsp = ahb.Rsp{Resp: ahb.RespError}
		if !t.req.Write {
			rsp.Data = make([]byte, t.req.NumBeats()*int(t.req.Size))
		}
	} else {
		sp := b.slaves[t.slave]
		got, ok := sp.Rsp.Pop()
		if !ok {
			return // slave still working
		}
		rsp = got
	}
	mp.Rsp.Push(rsp)
	// HMASTLOCK bookkeeping: a completed locked transfer holds the bus;
	// the unlocking transfer's completion releases it. RETRY does not
	// change lock state (the master will re-issue).
	if rsp.Resp == ahb.RespOkay || rsp.Resp == ahb.RespError {
		if t.req.Lock && !t.req.Unlock {
			b.lockOwner = t.master
		}
		if t.req.Unlock {
			b.lockOwner = -1
		}
	}
	b.cur = nil
	b.defaultRsp = false
}

// grant arbitrates and forwards one request.
func (b *Bus) grant() {
	n := len(b.masters)
	if n == 0 {
		return
	}
	pick := -1
	if b.lockOwner >= 0 {
		// Locked: only the owner may issue.
		if _, ok := b.masters[b.lockOwner].Req.Peek(); ok {
			pick = b.lockOwner
		}
	} else {
		for i := 0; i < n; i++ {
			m := (b.rr + i) % n
			if _, ok := b.masters[m].Req.Peek(); ok {
				pick = m
				break
			}
		}
	}
	if pick < 0 {
		return
	}
	req, _ := b.masters[pick].Req.Peek()
	node, _, ok := b.amap.Decode(req.Addr)
	if !ok {
		b.masters[pick].Req.Pop()
		b.cur = &busTxn{master: pick, req: req}
		b.defaultRsp = true
		b.stats.DecodeErrors++
		b.stats.Grants[pick]++
		b.rr = pick + 1
		return
	}
	sp, exists := b.slaves[node]
	if !exists {
		panic(fmt.Sprintf("bus: address map names node %v but no slave is attached", node))
	}
	if !sp.Req.CanPush(1) {
		return // slave input full; re-arbitrate next cycle
	}
	b.masters[pick].Req.Pop()
	sp.Req.Push(req)
	b.cur = &busTxn{master: pick, slave: node, req: req}
	b.stats.Grants[pick]++
	b.rr = pick + 1
}
