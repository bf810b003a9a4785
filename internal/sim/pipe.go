package sim

import "fmt"

// Pipe is a bounded FIFO with register semantics: values pushed during a
// cycle become visible to consumers only at the start of the next cycle.
// This models a hardware FIFO with a one-cycle forward latency and gives
// deterministic, registration-order-independent behaviour.
//
// Capacity accounting also has register semantics: a slot freed by a Pop
// this cycle cannot be reused by a Push until the next cycle (one-cycle
// credit turnaround), matching typical synchronous FIFO implementations.
//
// A Pipe is not a clocked component. The first Push, Pop or Consume of an
// edge puts it on its clock's commit list, and the clock commits it after
// every component's Eval: the commit publishes the edge's pushes,
// refreshes the credit snapshot and wakes the consumer (SetConsumer) when
// a push was published. A pipe nobody touches costs nothing; its
// occupancy statistics for the untouched cycles are credited in closed
// form at the next commit, so Stats stays exact.
type Pipe[T any] struct {
	name     string
	clk      *Clock
	consumer Waker
	staged   bool // on clk's commit list for this edge

	buf     []T // committed entries; the FIFO window starts at head
	head    int // index of the oldest committed entry in buf
	pending []T // pushed this cycle, not yet visible
	cap     int

	// startLen is the committed length at the start of the current cycle
	// (i.e., before any Pops this cycle). Push capacity checks use it so a
	// Pop and Push racing in the same cycle do not depend on Eval order.
	startLen int

	// statistics; sumOcc and occTicks cover cycles up to ticked
	pushes   uint64
	pops     uint64
	maxOcc   int
	sumOcc   uint64
	occTicks uint64
	ticked   int64
}

// NewPipe creates a Pipe with the given capacity in clk's domain: clk
// commits it.
func NewPipe[T any](clk *Clock, name string, capacity int) *Pipe[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: pipe %q: capacity must be positive, got %d", name, capacity))
	}
	p := &Pipe[T]{name: name, clk: clk, cap: capacity, ticked: clk.done}
	clk.pipes = append(clk.pipes, p)
	return p
}

// SetConsumer names the component that reads the pipe: every commit that
// publishes a push wakes it. A component that sleeps (Idler) must name
// itself on every pipe it reads.
func (p *Pipe[T]) SetConsumer(w Waker) { p.consumer = w }

// stage puts the pipe on its clock's commit list, once per edge.
func (p *Pipe[T]) stage() {
	if !p.staged {
		p.staged = true
		p.clk.commit = append(p.clk.commit, p)
	}
}

// Name returns the pipe's name.
func (p *Pipe[T]) Name() string { return p.name }

// Cap returns the pipe's capacity.
func (p *Pipe[T]) Cap() int { return p.cap }

// CanPush reports whether n more values can be pushed this cycle.
func (p *Pipe[T]) CanPush(n int) bool {
	return p.startLen+len(p.pending)+n <= p.cap
}

// Push stages v for commit at the end of this cycle. It returns false
// (and stages nothing) if the pipe has no credit this cycle.
func (p *Pipe[T]) Push(v T) bool {
	if !p.CanPush(1) {
		return false
	}
	p.pending = append(p.pending, v)
	p.pushes++
	p.stage()
	return true
}

// Len returns the number of committed (consumable) entries.
func (p *Pipe[T]) Len() int { return len(p.buf) - p.head }

// Empty reports whether no committed entries are available.
func (p *Pipe[T]) Empty() bool { return p.Len() == 0 }

// Peek returns the oldest committed entry without removing it.
func (p *Pipe[T]) Peek() (T, bool) {
	var zero T
	if p.Len() == 0 {
		return zero, false
	}
	return p.buf[p.head], true
}

// Pop removes and returns the oldest committed entry. The freed slot is
// zeroed (releasing any references) and its storage reclaimed in place:
// popping advances a head index instead of re-slicing, so the backing
// array is reused forever instead of creeping forward and forcing the
// commit's append to reallocate.
func (p *Pipe[T]) Pop() (T, bool) {
	var zero T
	if p.Len() == 0 {
		return zero, false
	}
	v := p.buf[p.head]
	p.buf[p.head] = zero
	p.head++
	if p.head == len(p.buf) {
		p.buf = p.buf[:0]
		p.head = 0
	}
	p.pops++
	p.stage()
	return v, true
}

// Window returns the committed entries as a slice, oldest first, without
// removing them. It is the batch form of Peek: a consumer that drains the
// pipe every cycle reads the window once and Consumes its length — one
// call per (pipe, edge) instead of one Pop per entry. The slice aliases
// internal storage and is invalidated by Pop, Consume, or the commit.
func (p *Pipe[T]) Window() []T { return p.buf[p.head:] }

// Consume removes the n oldest committed entries (freed slots are zeroed,
// releasing any references). It panics if fewer than n are committed.
func (p *Pipe[T]) Consume(n int) {
	if n < 0 || n > p.Len() {
		panic(fmt.Sprintf("sim: pipe %q: Consume(%d) with %d committed", p.name, n, p.Len()))
	}
	clear(p.buf[p.head : p.head+n])
	p.head += n
	if p.head == len(p.buf) {
		p.buf = p.buf[:0]
		p.head = 0
	}
	p.pops += uint64(n)
	p.stage()
}

// commit publishes this edge's pushes, refreshes the capacity snapshot,
// credits the occupancy of the cycles since the last commit, and wakes
// the consumer if anything was published.
func (p *Pipe[T]) commit(cycle int64) {
	p.staged = false
	if n := cycle - 1 - p.ticked; n > 0 {
		p.sumOcc += uint64(p.startLen) * uint64(n)
		p.occTicks += uint64(n)
	}
	published := len(p.pending) > 0
	if published {
		if p.head > 0 {
			// Compact the live window to the front so the append below
			// reuses the backing array's full capacity.
			n := copy(p.buf, p.buf[p.head:])
			clear(p.buf[n:])
			p.buf = p.buf[:n]
			p.head = 0
		}
		p.buf = append(p.buf, p.pending...)
		p.pending = p.pending[:0]
	}
	p.startLen = p.Len()
	if p.startLen > p.maxOcc {
		p.maxOcc = p.startLen
	}
	p.sumOcc += uint64(p.startLen)
	p.occTicks++
	p.ticked = cycle
	if published {
		p.consumer.Wake()
	}
}

// Stats describes cumulative pipe activity.
type PipeStats struct {
	Name   string
	Pushes uint64
	Pops   uint64
	MaxOcc int
	AvgOcc float64
}

// Stats returns cumulative counters for the pipe, through the clock's
// last committed edge.
func (p *Pipe[T]) Stats() PipeStats {
	sum, ticks := p.sumOcc, p.occTicks
	if n := p.clk.done - p.ticked; n > 0 {
		sum += uint64(p.startLen) * uint64(n)
		ticks += uint64(n)
	}
	avg := 0.0
	if ticks > 0 {
		avg = float64(sum) / float64(ticks)
	}
	return PipeStats{Name: p.name, Pushes: p.pushes, Pops: p.pops, MaxOcc: p.maxOcc, AvgOcc: avg}
}
