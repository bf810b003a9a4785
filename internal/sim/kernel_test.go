package sim

import (
	"fmt"
	"strings"
	"testing"
)

// edgeLog registers a component on c that appends name and the
// kernel's time in ns to log on every edge.
func edgeLog(c *Clock, name string, log *[]string) {
	c.Register(ClockedFunc{OnEval: func(int64) {
		*log = append(*log, fmt.Sprintf("%s%d", name, c.Kernel().Now()/Nanosecond))
	}})
}

func TestKernelEventOrdering(t *testing.T) {
	// Edges fire in time order, whatever order their clocks started in.
	k := NewKernel()
	var log []string
	for _, off := range []Time{30, 10, 20} {
		c := NewClock(k, "c", 100*Nanosecond, off*Nanosecond)
		edgeLog(c, "c", &log)
		c.Start()
	}
	k.RunUntil(30 * Nanosecond)
	if got := strings.Join(log, " "); got != "c10 c20 c30" {
		t.Fatalf("edges fired %q, want c10 c20 c30", got)
	}
	if k.Now() != 30*Nanosecond {
		t.Fatalf("final time = %v, want 30ns", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	// Edges due at the same time fire in the order they were scheduled:
	// Start order first, then the order of the edges that scheduled them.
	k := NewKernel()
	var log []string
	for i := 0; i < 10; i++ {
		c := NewClock(k, "c", Nanosecond, 5*Nanosecond)
		edgeLog(c, fmt.Sprintf("c%d@", i), &log)
		c.Start()
	}
	k.RunUntil(6 * Nanosecond)
	var want []string
	for _, at := range []int{5, 6} {
		for i := 0; i < 10; i++ {
			want = append(want, fmt.Sprintf("c%d@%d", i, at))
		}
	}
	if got := strings.Join(log, " "); got != strings.Join(want, " ") {
		t.Fatalf("same-time edges not in schedule order: %s", got)
	}
}

// TestKernelEdgeOrder pins the interleave of two periods on one kernel:
// edges fire by time, then by the order they were scheduled in. At 2ns
// the slow edge, scheduled at 0, fires before the fast one, scheduled
// at 1ns; at 4ns likewise.
func TestKernelEdgeOrder(t *testing.T) {
	k := NewKernel()
	fast := NewClock(k, "fast", Nanosecond, 0)
	slow := NewClock(k, "slow", 2*Nanosecond, 0)
	var log []string
	edgeLog(fast, "f", &log)
	edgeLog(slow, "s", &log)
	fast.Start()
	slow.Start()
	k.RunUntil(4 * Nanosecond)
	if got, want := strings.Join(log, " "), "f0 s0 f1 s2 f2 f3 s4 f4"; got != want {
		t.Fatalf("edges fired %q, want %q", got, want)
	}
	if k.Steps() != 8 {
		t.Fatalf("Steps() = %d, want 8", k.Steps())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 10, 10)
	var ran []Time
	clk.Register(ClockedFunc{OnEval: func(int64) { ran = append(ran, k.Now()) }})
	clk.Start()
	k.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) fired %d edges, want 2 (%v)", len(ran), ran)
	}
	if k.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25)", k.Now())
	}
	k.RunUntil(40)
	if len(ran) != 4 || ran[3] != 40 {
		t.Fatalf("edges at %v, want 10 20 30 40", ran)
	}
}

func TestKernelScheduleInPast(t *testing.T) {
	// With no clock started RunUntil only advances the time, and a clock
	// started later gets its first edge then, never at its passed offset.
	k := NewKernel()
	k.RunUntil(50)
	if k.Now() != 50 || k.Steps() != 0 {
		t.Fatalf("Now() = %v, Steps() = %d, want 50 and 0", k.Now(), k.Steps())
	}
	clk := NewClock(k, "late", 10, 0)
	var ran []Time
	clk.Register(ClockedFunc{OnEval: func(int64) { ran = append(ran, k.Now()) }})
	clk.RunCycles(2)
	if fmt.Sprint(ran) != "[50ps 60ps]" {
		t.Fatalf("edges at %v, want [50ps 60ps]", ran)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	// A clock started inside another clock's edge fires its first edge
	// at that time, after the edge that started it.
	k := NewKernel()
	fast := NewClock(k, "fast", Nanosecond, 0)
	slow := NewClock(k, "slow", 3*Nanosecond, 0)
	var log []string
	edgeLog(fast, "f", &log)
	edgeLog(slow, "s", &log)
	fast.Register(ClockedFunc{OnEval: func(c int64) {
		if c == 3 {
			slow.Start()
		}
	}})
	fast.RunCycles(6)
	if got, want := strings.Join(log, " "), "f0 f1 f2 s2 f3 f4 s5 f5"; got != want {
		t.Fatalf("edges fired %q, want %q", got, want)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{Nanosecond, "1ns"},
		{1500, "1500ps"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}
