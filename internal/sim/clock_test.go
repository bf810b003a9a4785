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
