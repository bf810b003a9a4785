package sim

import (
	"errors"
	"testing"
)

func TestKernelEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(30, func() { order = append(order, 3) })
	k.After(10, func() { order = append(order, 1) })
	k.After(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of time order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final time = %v, want 30", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not in schedule order: %v", order)
		}
	}
}

func TestKernelScheduleInPast(t *testing.T) {
	k := NewKernel()
	k.After(100, func() {})
	k.Run()
	if err := k.At(50, func() {}); !errors.Is(err, ErrPast) {
		t.Fatalf("scheduling in the past: err = %v, want ErrPast", err)
	}
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	NewKernel().After(-1, func() {})
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.After(at, func() { ran = append(ran, at) })
	}
	k.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) executed %d events, want 2 (%v)", len(ran), ran)
	}
	if k.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25)", k.Now())
	}
	k.RunUntil(100)
	if len(ran) != 4 {
		t.Fatalf("remaining events did not run: %v", ran)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits int
	var rec func()
	rec = func() {
		hits++
		if hits < 5 {
			k.After(7, rec)
		}
	}
	k.After(0, rec)
	k.Run()
	if hits != 5 {
		t.Fatalf("nested rescheduling ran %d times, want 5", hits)
	}
	if k.Now() != 4*7 {
		t.Fatalf("Now() = %v, want 28", k.Now())
	}
}

func TestKernelRunWhileDeadline(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	clk.Start()
	err := k.RunWhile(func() bool { return true }, 100*Nanosecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("RunWhile: err = %v, want ErrDeadline", err)
	}
}

func TestKernelRunWhileCondition(t *testing.T) {
	k := NewKernel()
	done := false
	k.After(42, func() { done = true })
	if err := k.RunWhile(func() bool { return !done }, Millisecond); err != nil {
		t.Fatalf("RunWhile: %v", err)
	}
	if k.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", k.Now())
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

func TestKernelRunWhileDeadlineBeforeLateEvent(t *testing.T) {
	// An event scheduled past the deadline must not execute: RunWhile has
	// to check the next event's time before stepping, not after.
	k := NewKernel()
	fired := false
	k.After(100*Nanosecond, func() { fired = true })
	err := k.RunWhile(func() bool { return !fired }, 50*Nanosecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("RunWhile: err = %v, want ErrDeadline", err)
	}
	if fired {
		t.Fatal("event past the deadline executed before ErrDeadline was reported")
	}
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0 (deadline overrun must not advance time)", k.Now())
	}
	// The late event is still pending and runs normally afterwards.
	if err := k.RunWhile(func() bool { return !fired }, Millisecond); err != nil {
		t.Fatalf("RunWhile after extending deadline: %v", err)
	}
	if !fired || k.Now() != 100*Nanosecond {
		t.Fatalf("fired=%v Now()=%v, want true/100ns", fired, k.Now())
	}
}
