package sim

import (
	"fmt"
	"math/bits"
)

// Clocked is a synchronous component driven by a Clock. On each rising
// edge the clock calls Eval on every awake component in registration
// order, then commits the edge's staged state (see OnCommit).
//
// Discipline (what makes results registration-order independent):
//   - Eval reads committed state (Pipe contents from previous cycles) and
//     performs the component's work, including Pipe pushes and pops.
//   - Pushes become visible, and pops return credit, only when the clock
//     commits them after every component's Eval.
//
// A component may also implement Idler to sleep while it has no work.
type Clocked interface {
	Eval(cycle int64)
}

// Idler is the optional interface of a Clocked component that can sleep.
// The clock asks Idle right after each Eval; a component that answers
// true is not evaluated again until something wakes it. Idle must
// answer true only when the component's next Eval would do nothing at
// all — change no state, count no stall, emit no event — and stay so
// until its Waker fires. A component opts in with three steps, and a
// fourth when it has work of its own that falls due later:
//   - implement Idle, including "every input pipe is empty": a
//     component stalled on a pipe it reads counts stall cycles;
//   - name itself as the consumer of every pipe it reads
//     (Pipe.SetConsumer), so that a committed push wakes it;
//   - call Wake from every method that hands it work from outside its
//     own Eval, such as a transaction request or a completion;
//   - arm WakeAt for the edge at which its own next work falls due,
//     such as an injection decision drawn ahead of time.
//
// A component that polls time-based inputs (an asynchronous FIFO, a pipe
// of another clock domain, a per-cycle sampler) must not implement it.
type Idler interface {
	Idle() bool
}

// ClockedFunc adapts a function to the Clocked interface. It never
// sleeps. A nil OnEval is a no-op.
type ClockedFunc struct {
	OnEval func(cycle int64)
}

// Eval implements Clocked.
func (c ClockedFunc) Eval(cycle int64) {
	if c.OnEval != nil {
		c.OnEval(cycle)
	}
}

// committer is one entry of a clock's commit list.
type committer interface{ commit(cycle int64) }

// commitFunc lets code outside this package join the commit list.
type commitFunc func(cycle int64)

func (f commitFunc) commit(cycle int64) { f(cycle) }

// Clock is a free-running clock domain. All components registered on one
// Clock share its frequency; systems may have several Clocks with different
// periods (see phys.CDCFifo for crossing between them).
//
// Each edge evaluates the awake components — a bitset in registration
// order — and then runs the commit list: the pipes and other staged
// state touched during the edge. A sleeping component skips edges until
// a Waker sets its bit again, so an idle cycle costs what moves in it.
type Clock struct {
	k      *Kernel
	name   string
	period Time
	offset Time
	cycle  int64

	comps  []Clocked
	idlers []Idler  // idlers[i] is comps[i]'s Idler, nil if it never sleeps
	awake  []uint64 // bit i: evaluate comps[i] on the next edge
	cur    int      // index being evaluated while scanning
	scan   bool     // inside an edge's evaluation pass
	every  bool     // reference mode: evaluate every component on every edge
	evals  uint64   // evaluated component-cycles
	commit []committer
	timers []timer // WakeAt's armed wakes, a min-heap by cycle
	done   int64   // last cycle whose commit list has run
	pipes  []interface{ Stats() PipeStats }

	started bool
	at      Time   // time of the pending edge, once started
	seq     uint64 // the kernel's scheduling order of that edge
}

// NewClock creates a clock on kernel k with the given period. The first
// rising edge fires at time offset (usually 0). Start must be called before
// edges fire.
func NewClock(k *Kernel, name string, period Time, offset Time) *Clock {
	if period <= 0 {
		panic(fmt.Sprintf("sim: clock %q: period must be positive, got %v", name, period))
	}
	return &Clock{k: k, name: name, period: period, offset: offset}
}

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// Period returns the clock period.
func (c *Clock) Period() Time { return c.period }

// Cycle returns the number of edges that have fired.
func (c *Clock) Cycle() int64 { return c.cycle }

// Kernel returns the kernel this clock is scheduled on.
func (c *Clock) Kernel() *Kernel { return c.k }

// Evals returns the component evaluations so far: one per awake
// component per edge. It is the activity count the active set saves on.
func (c *Clock) Evals() uint64 { return c.evals }

// PipeStats returns the statistics of every pipe in the clock's domain,
// in creation order.
func (c *Clock) PipeStats() []PipeStats {
	out := make([]PipeStats, len(c.pipes))
	for i, p := range c.pipes {
		out[i] = p.Stats()
	}
	return out
}

// EvalEveryCycle switches the clock to the reference mode: every
// registered component is evaluated on every edge, as if none
// implemented Idler, with the same commits. It exists for differential
// tests, which compare a run in this mode with the default active-set
// run; results must be identical.
func (c *Clock) EvalEveryCycle() {
	c.every = true
	for i := range c.comps {
		c.setAwake(i)
	}
}

// EveryCycle reports whether EvalEveryCycle switched the clock to the
// reference mode. A component that skips work of its own inside Eval
// (the fabric's idle switches and untouched lanes) does all of that
// work in this mode too, so the differential tests compare its skips
// with the full sweep as well.
func (c *Clock) EveryCycle() bool { return c.every }

// Register adds a component to the clock domain, awake, and returns its
// Waker. Components are evaluated in registration order, but the
// Eval-then-commit discipline makes simulation results independent of
// that order.
func (c *Clock) Register(comp Clocked) Waker {
	if comp == nil {
		panic("sim: Register(nil)")
	}
	i := len(c.comps)
	c.comps = append(c.comps, comp)
	s, _ := comp.(Idler)
	c.idlers = append(c.idlers, s)
	if i>>6 == len(c.awake) {
		c.awake = append(c.awake, 0)
	}
	c.setAwake(i)
	return Waker{c: c, i: i}
}

func (c *Clock) setAwake(i int) { c.awake[i>>6] |= 1 << (i & 63) }

// timer is one armed WakeAt: component i wakes at the edge of cycle.
type timer struct {
	cycle int64
	i     int
}

// arm pushes t onto the timer heap.
func (c *Clock) arm(t timer) {
	h := append(c.timers, t)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if h[p].cycle <= h[j].cycle {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	c.timers = h
}

// fire wakes every component armed for this edge or an earlier one.
func (c *Clock) fire() {
	h := c.timers
	for len(h) > 0 && h[0].cycle <= c.cycle {
		c.setAwake(h[0].i)
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for j := 0; ; {
			l := 2*j + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].cycle < h[l].cycle {
				l = r
			}
			if h[j].cycle <= h[l].cycle {
				break
			}
			h[j], h[l] = h[l], h[j]
			j = l
		}
	}
	c.timers = h
}

// OnCommit puts fn on this edge's commit list: the clock calls it once,
// after every component's Eval. Outside an edge, fn runs at the end of
// the next one. Staged state that is not a Pipe uses it, once per edge
// it is touched in.
func (c *Clock) OnCommit(fn func(cycle int64)) { c.commit = append(c.commit, commitFunc(fn)) }

// Start schedules the first edge, at the clock's offset or now, whichever
// is later. Calling Start twice is a no-op.
func (c *Clock) Start() {
	if c.started {
		return
	}
	c.started = true
	c.k.clocks = append(c.k.clocks, c)
	c.k.schedule(c, max(c.offset, c.k.now))
}

// next returns the first awake index at or after i, or len(c.comps).
// It rereads the bitset, so a component woken during this edge's scan
// is found when the scan reaches it.
func (c *Clock) next(i int) int {
	for w := i >> 6; w < len(c.awake); w++ {
		word := c.awake[w]
		if w == i>>6 {
			word &^= 1<<(i&63) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return len(c.comps)
}

func (c *Clock) edge() {
	c.cycle++
	c.fire()
	c.scan, c.cur = true, -1
	// A component registered during the scan first runs in the next edge.
	n := len(c.comps)
	for i := c.next(0); i < n; i = c.next(i + 1) {
		c.cur = i
		c.comps[i].Eval(c.cycle)
		c.evals++
		if s := c.idlers[i]; s != nil && !c.every && s.Idle() {
			c.awake[i>>6] &^= 1 << (i & 63)
		}
	}
	c.scan = false
	for _, x := range c.commit {
		x.commit(c.cycle)
	}
	c.commit = c.commit[:0]
	c.done = c.cycle
	c.k.schedule(c, c.at+c.period)
}

// RunCycles starts the clock if needed and fires the kernel's edges, in
// order, until this clock has fired exactly n more. Edges of the other
// clocks on the kernel that fall due first fire too.
func (c *Clock) RunCycles(n int64) {
	c.Start()
	for target := c.cycle + n; c.cycle < target; {
		c.k.step(c.k.next())
	}
}

// Waker is a registered component's handle on its clock. The zero Waker
// wakes nothing.
type Waker struct {
	c *Clock
	i int
}

// Wake makes the component evaluate again. Woken during an edge's scan
// before the scan reaches it, it runs in this edge; otherwise it runs in
// the next. That is exactly the first edge at which evaluating every
// component on every edge would have seen the change that woke it.
func (w Waker) Wake() {
	if w.c != nil {
		w.c.setAwake(w.i)
	}
}

// WakeAt makes the component evaluate at the edge of the given cycle:
// the timed form of Wake, for a component that knows when its own next
// work falls due and sleeps until then. The clock keeps the armed wakes
// in a min-heap and sets the component's awake bit at the start of that
// edge. It asks nothing of the kernel, and once the heap has grown to
// the most wakes armed at once it allocates nothing. A cycle already
// reached acts as Wake. A wake fires once; a component woken earlier
// by something else still runs at the armed edge.
func (w Waker) WakeAt(cycle int64) {
	switch {
	case w.c == nil:
	case cycle <= w.c.cycle:
		w.c.setAwake(w.i)
	default:
		w.c.arm(timer{cycle: cycle, i: w.i})
	}
}

// Consumes names the component as the consumer of every pipe given (see
// Pipe.SetConsumer).
func (w Waker) Consumes(pipes ...interface{ SetConsumer(Waker) }) {
	for _, p := range pipes {
		p.SetConsumer(w)
	}
}

// LastEval returns the cycle of the component's most recent Eval had
// the clock evaluated every component on every edge: the current cycle
// once this edge's scan has reached the component, the previous cycle
// before. A sleeping component that stamps times with "the cycle of my
// last Eval" reads it here.
func (w Waker) LastEval() int64 {
	if w.c.scan && w.i > w.c.cur {
		return w.c.cycle - 1
	}
	return w.c.cycle
}
