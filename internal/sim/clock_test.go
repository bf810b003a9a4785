package sim

import (
	"fmt"
	"testing"
)

// TestClockEvalBeforeUpdate checks the edge's two phases: every
// component's Eval runs, in registration order, before the commit list
// publishes anything staged during the edge.
func TestClockEvalBeforeUpdate(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 4)
	var trace []string
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		trace = append(trace, "a.eval")
		p.Push(int(c))
	}})
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		trace = append(trace, fmt.Sprintf("b.eval sees %d", p.Len()))
	}})
	clk.OnCommit(func(c int64) { trace = append(trace, fmt.Sprintf("commit %d", c)) })
	clk.RunCycles(2)
	want := []string{"a.eval", "b.eval sees 0", "commit 1", "a.eval", "b.eval sees 1"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestClockCycleCount(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 2*Nanosecond, 0)
	clk.RunCycles(10)
	if clk.Cycle() != 10 {
		t.Fatalf("Cycle() = %d, want 10", clk.Cycle())
	}
	// First edge at t=0, so after 10 edges now = 9 periods.
	if k.Now() != 18*Nanosecond {
		t.Fatalf("Now() = %v, want 18ns", k.Now())
	}
}

func TestClockOffset(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 500*Picosecond)
	var firstEdge Time = -1
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		if firstEdge < 0 {
			firstEdge = k.Now()
		}
	}})
	clk.RunCycles(3)
	if firstEdge != 500*Picosecond {
		t.Fatalf("first edge at %v, want 500ps", firstEdge)
	}
}

func TestTwoClockDomains(t *testing.T) {
	k := NewKernel()
	fast := NewClock(k, "fast", Nanosecond, 0)
	slow := NewClock(k, "slow", 3*Nanosecond, 0)
	var fastN, slowN int
	fast.Register(ClockedFunc{OnEval: func(c int64) { fastN++ }})
	slow.Register(ClockedFunc{OnEval: func(c int64) { slowN++ }})
	fast.Start()
	slow.Start()
	k.RunUntil(30 * Nanosecond)
	if fastN != 31 { // edges at 0..30ns inclusive
		t.Fatalf("fast edges = %d, want 31", fastN)
	}
	if slowN != 11 { // edges at 0,3,...,30
		t.Fatalf("slow edges = %d, want 11", slowN)
	}
}

func TestClockBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock with period 0 did not panic")
		}
	}()
	NewClock(NewKernel(), "bad", 0, 0)
}

// napper is an Idler that records the cycles it runs at and sleeps
// after each; only a Waker brings it back.
type napper struct {
	id    int
	w     Waker
	trace *[][2]int64 // (cycle, id) of every Eval, shared by a test's nappers
	n     int         // Evals, for the allocation check
}

func (s *napper) Eval(cycle int64) {
	s.n++
	if s.trace != nil {
		*s.trace = append(*s.trace, [2]int64{cycle, int64(s.id)})
	}
}

func (s *napper) Idle() bool { return true }

// nappers registers n nappers on a fresh clock and runs its first
// edge, after which every one of them sleeps.
func nappers(n int, trace *[][2]int64) (*Kernel, *Clock, []*napper) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	ss := make([]*napper, n)
	for i := range ss {
		ss[i] = &napper{id: i, trace: trace}
		ss[i].w = clk.Register(ss[i])
	}
	clk.RunCycles(1)
	*trace = (*trace)[:0]
	return k, clk, ss
}

// TestWakeAt pins the timed wake: an armed component runs at exactly
// its edge and at no other, several timers fire in cycle order, a cycle
// already reached acts as Wake, the kernel fires only clock edges, and
// arming and firing allocate nothing once the heap has grown.
func TestWakeAt(t *testing.T) {
	t.Run("exact edge", func(t *testing.T) {
		var trace [][2]int64
		k, clk, ss := nappers(2, &trace)
		ss[1].w.WakeAt(7)
		clk.RunCycles(19)
		if want := [][2]int64{{7, 1}}; fmt.Sprint(trace) != fmt.Sprint(want) {
			t.Fatalf("ran at %v, want %v", trace, want)
		}
		if k.Steps() != 20 {
			t.Fatalf("kernel fired %d steps in 20 edges", k.Steps())
		}
	})
	t.Run("cycle order", func(t *testing.T) {
		var trace [][2]int64
		_, clk, ss := nappers(5, &trace)
		// Armed out of order, with a tie and a component armed twice.
		arms := [][2]int64{{9, 0}, {4, 3}, {6, 1}, {4, 2}, {12, 3}, {5, 4}, {30, 0}, {2, 1}}
		for _, a := range arms {
			ss[a[1]].w.WakeAt(a[0])
		}
		clk.RunCycles(40)
		want := [][2]int64{{2, 1}, {4, 2}, {4, 3}, {5, 4}, {6, 1}, {9, 0}, {12, 3}, {30, 0}}
		if fmt.Sprint(trace) != fmt.Sprint(want) {
			t.Fatalf("ran at %v, want %v", trace, want)
		}
		// A longer pseudo-random schedule exercises the heap's sifts.
		trace = trace[:0]
		want = want[:0]
		base := clk.Cycle()
		for j := int64(0); j < 200; j++ {
			at := base + 1 + (j*37)%97
			ss[j%5].w.WakeAt(at)
			want = append(want, [2]int64{at, j % 5})
		}
		clk.RunCycles(100)
		seen := map[[2]int64]bool{}
		for _, w := range want {
			seen[w] = true
		}
		if len(trace) != len(seen) {
			t.Fatalf("%d Evals for %d distinct armed (cycle, component) pairs", len(trace), len(seen))
		}
		for i, e := range trace {
			if !seen[e] {
				t.Fatalf("ran %v, which nobody armed", e)
			}
			if i > 0 && (e[0] < trace[i-1][0] || e[0] == trace[i-1][0] && e[1] <= trace[i-1][1]) {
				t.Fatalf("Evals out of order: %v after %v", e, trace[i-1])
			}
		}
	})
	t.Run("reached cycle acts as Wake", func(t *testing.T) {
		// Driver a (index 0) arms sleeper 1 for the current cycle before
		// the scan reaches it; driver b (index 3) arms sleeper 2, which
		// the scan has passed, for an earlier cycle. Plain Wake runs the
		// first in this edge and the second in the next.
		for _, timed := range []bool{false, true} {
			var trace [][2]int64
			k := NewKernel()
			clk := NewClock(k, "clk", Nanosecond, 0)
			ss := make([]*napper, 3)
			wake := func(s *napper, at int64) {
				if timed {
					s.w.WakeAt(at)
				} else {
					s.w.Wake()
				}
			}
			clk.Register(ClockedFunc{OnEval: func(c int64) {
				if c == 3 {
					wake(ss[1], 3)
				}
			}})
			for i := 1; i < 3; i++ {
				ss[i] = &napper{id: i, trace: &trace}
				ss[i].w = clk.Register(ss[i])
			}
			clk.Register(ClockedFunc{OnEval: func(c int64) {
				if c == 5 {
					wake(ss[2], 2)
				}
			}})
			clk.RunCycles(1)
			trace = trace[:0]
			clk.RunCycles(7)
			wake(ss[1], clk.Cycle()) // outside an edge: the next one
			clk.RunCycles(2)
			want := [][2]int64{{3, 1}, {6, 2}, {9, 1}}
			if fmt.Sprint(trace) != fmt.Sprint(want) {
				t.Fatalf("timed=%v: ran at %v, want %v", timed, trace, want)
			}
		}
	})
	t.Run("allocation-free", func(t *testing.T) {
		var trace [][2]int64
		_, clk, ss := nappers(8, &trace)
		for _, s := range ss {
			s.trace, s.n = nil, 0
		}
		allocs := testing.AllocsPerRun(100, func() {
			now := clk.Cycle()
			for i, s := range ss {
				s.w.WakeAt(now + 8 - int64(i))
			}
			clk.RunCycles(8)
		})
		if allocs != 0 {
			t.Fatalf("arming and firing 8 timers allocated %v objects", allocs)
		}
		if ss[0].n != 101 {
			t.Fatalf("napper ran %d times in 101 armed rounds", ss[0].n)
		}
	})
}
