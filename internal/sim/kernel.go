// Package sim provides the deterministic discrete-event simulation kernel
// that every other layer of the NoC model is built on: an event queue with
// picosecond resolution, clock domains that drive clocked components,
// staged FIFOs with register semantics, and seeded random number
// generation.
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

import (
	"errors"
	"fmt"
)

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

// ErrDeadline is returned by RunWhile when the deadline passes before the
// condition is satisfied.
var ErrDeadline = errors.New("sim: deadline reached before condition was satisfied")

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: cannot schedule event in the past")

type event struct {
	at  Time
	seq uint64 // tie-break: same-time events run in schedule order
	fn  func()
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than built on container/heap because the interface-based API
// boxes every event into an interface{} on push and pop — two heap
// allocations per clock edge on the simulator's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the fn reference
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Kernel is a discrete-event simulator. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	steps  uint64
}

// NewKernel returns a kernel at time zero with an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// At schedules fn to run at absolute time t. Scheduling in the past returns
// ErrPast; scheduling at the current time is allowed and runs after all
// currently queued same-time events.
func (k *Kernel) At(t Time, fn func()) error {
	if t < k.now {
		return fmt.Errorf("%w: now=%v requested=%v", ErrPast, k.now, t)
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn})
	return nil
}

// After schedules fn to run d picoseconds after the current time. Negative
// delays panic: they indicate a modeling bug, not a runtime condition.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if err := k.At(k.now+d, fn); err != nil {
		panic(err) // unreachable: now+d >= now for d >= 0
	}
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events.pop()
	k.now = e.at
	k.steps++
	e.fn()
	return true
}

// Run executes events until the queue is empty. Do not use Run with
// free-running clocks (they self-reschedule forever); use RunUntil or
// RunWhile instead.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain pending.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
}

// RunWhile steps the simulation while cond returns true. It returns nil as
// soon as cond is false, ErrDeadline if the deadline passes first, and an
// error if the event queue drains while cond still holds.
//
// The deadline is checked against the next pending event's time before that
// event executes: an event scheduled past the deadline never runs. Without
// the peek, a sparse event queue could jump the clock well past the deadline
// (running the late event's side effects) before the overrun was noticed.
func (k *Kernel) RunWhile(cond func() bool, deadline Time) error {
	for cond() {
		if k.now > deadline {
			return fmt.Errorf("%w (now=%v)", ErrDeadline, k.now)
		}
		if len(k.events) > 0 && k.events[0].at > deadline {
			return fmt.Errorf("%w (next event at %v)", ErrDeadline, k.events[0].at)
		}
		if !k.Step() {
			return errors.New("sim: event queue drained while condition still true")
		}
	}
	return nil
}
