// Package sim provides the deterministic cycle-driven simulation
// substrate that every other layer of the NoC model is built on: clock
// domains that drive clocked components, a kernel that is their shared
// time base (picosecond resolution; it fires the clocks' edges in time
// order, so domains of different periods interleave exactly), staged
// FIFOs with register semantics, and seeded random number generation.
//
// Each clock edge has two phases. First the clock calls Eval on every
// awake component, in registration order; Eval reads state committed in
// earlier cycles and stages its own pushes and pops. Then the clock runs
// the edge's commit list: every Pipe (and any other staged state, see
// Clock.OnCommit) touched during the edge publishes its pushes and
// refreshes its credit. Nothing a component stages is visible to another
// component in the same edge, so results do not depend on registration
// order.
//
// Evaluation is activity-driven. A component that implements Idler
// leaves the active set when its Idle reports that its next Eval would
// do nothing, and a Waker brings it back: a commit that publishes a push
// on a pipe it consumes, an explicit Wake from the call that hands it
// work, or a WakeAt it armed itself for the edge at which its own next
// work falls due. A wake is timed so that the component runs at exactly
// the edge at which evaluating every component on every edge would first
// have seen the change, so sleeping changes no result. Clock.EvalEveryCycle is that
// evaluate-everything reference, kept for differential tests.
//
// Determinism is a design requirement: two runs with the same seed and the
// same configuration produce bit-identical results, regardless of component
// registration order. This is what makes the reproduction experiments
// (internal/experiments, printed by cmd/nocbench) meaningful. RNG draws
// math/rand's streams from a copy of its generator that the package
// owns (rngsource.go): seeding reduces modulo 2³¹−1 without dividing,
// Bool reads the generator without going through interfaces, Until
// makes a run of Bool draws in one batch, comparing each raw Int63 with
// an integer bound instead of scaling it to a float, and ForkSeed
// derives a child's seed without seeding anything.
package sim

import "fmt"

// Time is simulation time in picoseconds.
type Time int64

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// String renders a Time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond && t%Millisecond == 0:
		return fmt.Sprintf("%dms", t/Millisecond)
	case t >= Microsecond && t%Microsecond == 0:
		return fmt.Sprintf("%dus", t/Microsecond)
	case t >= Nanosecond && t%Nanosecond == 0:
		return fmt.Sprintf("%dns", t/Nanosecond)
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Kernel is the time base of the clocks started on it. Each started
// clock has one pending edge, and the kernel fires the edge due first:
// by time, and edges due at the same time in the order they were
// scheduled. Create one with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	steps  uint64
	clocks []*Clock // started clocks, in Start order
}

// NewKernel returns a kernel at time zero with no clock started.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of clock edges fired so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// schedule sets c's next edge to time t, after every edge already
// scheduled for t.
func (k *Kernel) schedule(c *Clock, t Time) {
	k.seq++
	c.at, c.seq = t, k.seq
}

// next returns the started clock whose edge is due first, or nil if no
// clock is started.
func (k *Kernel) next() *Clock {
	var n *Clock
	for _, c := range k.clocks {
		if n == nil || c.at < n.at || c.at == n.at && c.seq < n.seq {
			n = c
		}
	}
	return n
}

// step advances the time to c's pending edge and fires it.
func (k *Kernel) step(c *Clock) {
	k.now = c.at
	k.steps++
	c.edge()
}

// RunUntil fires every edge due at or before t, then advances the time
// to exactly t. With no clock started it only advances the time.
func (k *Kernel) RunUntil(t Time) {
	for c := k.next(); c != nil && c.at <= t; c = k.next() {
		k.step(c)
	}
	if t > k.now {
		k.now = t
	}
}
