// Package phys implements the NoC physical layer: links that serialize
// flits onto narrow wires (phits), pipeline registers, and dual-clock
// FIFOs for crossing clock domains.
//
// Per the paper (§1), the physical layer "defines how packets are
// physically transmitted" and is independent of the transaction and
// transport layers: nothing here inspects packet contents — a link moves
// flits as byte bundles, a CDC FIFO moves opaque values between clock
// domains. Experiment E8 measures raw bandwidth vs link width and the
// clock-matching penalty, the two physical-layer concerns the paper names.
package phys

import (
	"fmt"

	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// Phit is a physical transfer unit: the bytes a link moves in one cycle.
type Phit struct {
	Data  []byte
	First bool
	Last  bool
}

// LinkConfig parameterizes a physical link.
type LinkConfig struct {
	// WidthBytes is the physical wire width. A flit carrying B bytes
	// needs ceil(B/WidthBytes) cycles on the wire; a link as wide as the
	// flit moves one flit per cycle.
	WidthBytes int
	// PipelineStages adds fixed latency (retiming registers on long
	// wires) without affecting throughput.
	PipelineStages int
}

// LinkStats aggregates link activity.
type LinkStats struct {
	Flits      uint64
	Bytes      uint64
	BusyCycles uint64
	IdleCycles uint64
}

// Utilization returns the fraction of cycles the wire was busy.
func (s LinkStats) Utilization() float64 {
	total := s.BusyCycles + s.IdleCycles
	if total == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(total)
}

// Link moves flits from a source pipe to a destination pipe through an
// explicit serializer/deserializer pair: flits are chopped into phits of
// WidthBytes, transmitted one phit per cycle, reassembled, and passed
// through a pipeline delay. The flit byte stream is reproduced exactly —
// property-tested — so upper layers cannot observe anything but timing.
type Link struct {
	name string
	cfg  LinkConfig
	src  *sim.Pipe[transport.Flit]
	dst  *sim.Pipe[transport.Flit]

	// serializer state
	cur     transport.Flit
	phits   []Phit
	phitIdx int
	sending bool
	// deserializer state
	rxBuf  []byte
	rxFlit transport.Flit
	rxOpen bool
	// pipeline delay line: flits with the cycle they become deliverable
	delay []delayed

	stats LinkStats
}

type delayed struct {
	f     transport.Flit
	ready int64
}

// NewLink creates a link between two flit pipes and registers it on clk.
func NewLink(clk *sim.Clock, name string, cfg LinkConfig, src, dst *sim.Pipe[transport.Flit]) *Link {
	if cfg.WidthBytes <= 0 {
		panic(fmt.Sprintf("phys: link %q: WidthBytes must be positive", name))
	}
	if cfg.PipelineStages < 0 {
		panic(fmt.Sprintf("phys: link %q: negative PipelineStages", name))
	}
	l := &Link{name: name, cfg: cfg, src: src, dst: dst}
	clk.Register(l)
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Stats returns cumulative counters.
func (l *Link) Stats() LinkStats { return l.stats }

// serialize splits a flit's bytes into phits of the wire width. A flit
// with no data still needs one (empty) phit to carry its framing.
func serialize(f transport.Flit, width int) []Phit {
	n := (len(f.Data) + width - 1) / width
	if n == 0 {
		n = 1
	}
	phits := make([]Phit, 0, n)
	for i := 0; i < n; i++ {
		lo := i * width
		hi := lo + width
		if hi > len(f.Data) {
			hi = len(f.Data)
		}
		phits = append(phits, Phit{Data: f.Data[lo:hi], First: i == 0, Last: i == n-1})
	}
	return phits
}

// Eval implements sim.Clocked: transmit one phit, deliver ready flits.
func (l *Link) Eval(cycle int64) {
	// Delivery side: the oldest delayed flit goes out when ready and the
	// destination has credit.
	if len(l.delay) > 0 && l.delay[0].ready <= cycle {
		if l.dst.CanPush(1) {
			l.dst.Push(l.delay[0].f)
			l.delay = l.delay[1:]
		}
	}

	// Wire side: move one phit per cycle.
	if !l.sending {
		f, ok := l.src.Pop()
		if !ok {
			l.stats.IdleCycles++
			return
		}
		l.cur = f
		l.phits = serialize(f, l.cfg.WidthBytes)
		l.phitIdx = 0
		l.sending = true
	}
	ph := l.phits[l.phitIdx]
	l.receivePhit(ph, cycle)
	l.stats.BusyCycles++
	l.stats.Bytes += uint64(len(ph.Data))
	l.phitIdx++
	if l.phitIdx == len(l.phits) {
		l.sending = false
		l.stats.Flits++
	}
}

// receivePhit is the deserializer: accumulate bytes, reconstruct the flit
// on the last phit, and enter the pipeline delay.
func (l *Link) receivePhit(ph Phit, cycle int64) {
	if ph.First {
		l.rxBuf = l.rxBuf[:0]
		l.rxFlit = l.cur // framing metadata travels with the phit group
		l.rxOpen = true
	}
	if !l.rxOpen {
		panic(fmt.Sprintf("phys: link %q: phit without open frame", l.name))
	}
	l.rxBuf = append(l.rxBuf, ph.Data...)
	if ph.Last {
		f := l.rxFlit
		f.Data = append([]byte(nil), l.rxBuf...)
		l.rxOpen = false
		l.delay = append(l.delay, delayed{f: f, ready: cycle + int64(l.cfg.PipelineStages) + 1})
	}
}

// CyclesPerFlit returns the serialization cost of a flit of dataBytes on
// this link.
func (l *Link) CyclesPerFlit(dataBytes int) int {
	n := (dataBytes + l.cfg.WidthBytes - 1) / l.cfg.WidthBytes
	if n == 0 {
		n = 1
	}
	return n
}
