package phys

import (
	"fmt"

	"gonoc/internal/sim"
)

// AsyncFifo is a dual-clock FIFO: the producer pushes in its own clock
// domain, the consumer pops in another. Each value incurs a
// synchronization delay of SyncStages consumer-clock periods — the
// classic two-flop (or deeper) synchronizer cost of mesochronous and
// asynchronous clock crossings.
//
// The FIFO is the paper's physical-layer "matching clocks" mechanism: it
// lets an NIU run at its IP block's frequency while the switch fabric
// runs at its own.
type AsyncFifo[T any] struct {
	name       string
	k          *sim.Kernel
	consumer   *sim.Clock
	depth      int
	syncStages int

	// buf[head:] is the live window, oldest first. Pops advance head
	// instead of re-slicing, so the backing array is reused instead of
	// creeping forward and forcing every push burst to reallocate —
	// the same fix the fabric's flit lanes use (see transport's flitQ).
	buf  []asyncEntry[T]
	head int

	// Credit turnaround: a slot freed by Pop at kernel time T is not
	// reusable by CanPush until a strictly later time, mirroring
	// sim.Pipe's one-cycle credit rule (the pop-side pointer has to
	// cross back through the synchronizer before the producer can see
	// the space; same-instant reuse would model a zero-latency credit
	// path no real CDC FIFO has).
	lastPopAt sim.Time
	popsNow   int

	pushes, pops uint64
	maxOcc       int
}

type asyncEntry[T any] struct {
	v       T
	readyAt sim.Time
}

// NewAsyncFifo creates a CDC FIFO of the given depth whose pop side is
// synchronized to consumerClk with syncStages flops.
func NewAsyncFifo[T any](k *sim.Kernel, name string, depth, syncStages int, consumerClk *sim.Clock) *AsyncFifo[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("phys: async fifo %q: depth must be positive", name))
	}
	if syncStages < 1 {
		panic(fmt.Sprintf("phys: async fifo %q: need at least one sync stage", name))
	}
	return &AsyncFifo[T]{name: name, k: k, consumer: consumerClk, depth: depth, syncStages: syncStages}
}

// CanPush reports whether the producer may push this cycle. Slots freed
// by Pop at the current kernel instant still count as occupied: the
// credit becomes visible to the producer at its next evaluation after
// the pop.
func (f *AsyncFifo[T]) CanPush() bool {
	occ := f.Len()
	if f.popsNow > 0 && f.lastPopAt == f.k.Now() {
		occ += f.popsNow
	}
	return occ < f.depth
}

// Push inserts a value from the producer domain. The value becomes
// visible to the consumer after the synchronizer delay.
func (f *AsyncFifo[T]) Push(v T) bool {
	if !f.CanPush() {
		return false
	}
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		// Compact the live window to the front so the append reuses the
		// backing array's full capacity instead of growing it.
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, asyncEntry[T]{
		v:       v,
		readyAt: f.k.Now() + sim.Time(f.syncStages)*f.consumer.Period(),
	})
	f.pushes++
	if f.Len() > f.maxOcc {
		f.maxOcc = f.Len()
	}
	return true
}

// CanPop reports whether a synchronized value is available now.
func (f *AsyncFifo[T]) CanPop() bool {
	return f.Len() > 0 && f.buf[f.head].readyAt <= f.k.Now()
}

// notePop records one pop's credit-turnaround mark at the current
// kernel instant.
func (f *AsyncFifo[T]) notePop() {
	f.pops++
	if f.lastPopAt != f.k.Now() {
		f.lastPopAt = f.k.Now()
		f.popsNow = 0
	}
	f.popsNow++
}

// Pop removes the oldest synchronized value.
func (f *AsyncFifo[T]) Pop() (T, bool) {
	var zero T
	if !f.CanPop() {
		return zero, false
	}
	v := f.buf[f.head].v
	f.buf[f.head] = asyncEntry[T]{}
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	f.notePop()
	return v, true
}

// Len returns the number of stored values (synchronized or not).
func (f *AsyncFifo[T]) Len() int { return len(f.buf) - f.head }

// AsyncFifoStats aggregates activity.
type AsyncFifoStats struct {
	Pushes, Pops uint64
	MaxOcc       int
}

// Stats returns cumulative counters.
func (f *AsyncFifo[T]) Stats() AsyncFifoStats {
	return AsyncFifoStats{Pushes: f.pushes, Pops: f.pops, MaxOcc: f.maxOcc}
}
