package sim

import (
	"testing"
	"testing/quick"
)

func TestPipeRegisterSemantics(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 4)

	var seenAtCycle []int64 // cycle at which consumer first sees the value
	producer := ClockedFunc{OnEval: func(c int64) {
		if c == 1 {
			if !p.Push(42) {
				t.Errorf("push failed on empty pipe")
			}
		}
	}}
	consumer := ClockedFunc{OnEval: func(c int64) {
		if v, ok := p.Pop(); ok {
			if v != 42 {
				t.Errorf("popped %d, want 42", v)
			}
			seenAtCycle = append(seenAtCycle, c)
		}
	}}
	clk.Register(producer)
	clk.Register(consumer)
	clk.RunCycles(5)

	if len(seenAtCycle) != 1 || seenAtCycle[0] != 2 {
		t.Fatalf("value pushed in cycle 1 seen at cycles %v, want [2]", seenAtCycle)
	}
}

// TestPipeOrderIndependence runs the same producer/consumer pair with both
// registration orders and checks identical observable behaviour — the core
// determinism guarantee.
func TestPipeOrderIndependence(t *testing.T) {
	run := func(consumerFirst bool) []int64 {
		k := NewKernel()
		clk := NewClock(k, "clk", Nanosecond, 0)
		p := NewPipe[int](clk, "p", 2)
		var seen []int64
		producer := ClockedFunc{OnEval: func(c int64) {
			p.Push(int(c)) // push every cycle while credit allows
		}}
		consumer := ClockedFunc{OnEval: func(c int64) {
			if c%2 == 0 { // pop every other cycle -> backpressure
				if _, ok := p.Pop(); ok {
					seen = append(seen, c)
				}
			}
		}}
		if consumerFirst {
			clk.Register(consumer)
			clk.Register(producer)
		} else {
			clk.Register(producer)
			clk.Register(consumer)
		}
		clk.RunCycles(20)
		return seen
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("registration order changed behaviour: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("registration order changed behaviour: %v vs %v", a, b)
		}
	}
}

func TestPipeCapacityTurnaround(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 1)

	var pushOK []bool
	comp := ClockedFunc{OnEval: func(c int64) {
		switch c {
		case 1:
			pushOK = append(pushOK, p.Push(1)) // fills the single slot
		case 2:
			// Slot occupied: pop it, then try to push. The freed slot must
			// NOT be reusable in the same cycle (1-cycle credit turnaround).
			if _, ok := p.Pop(); !ok {
				t.Error("pop failed in cycle 2")
			}
			pushOK = append(pushOK, p.Push(2))
		case 3:
			pushOK = append(pushOK, p.Push(3)) // now the credit is back
		}
	}}
	clk.Register(comp)
	clk.RunCycles(4)

	want := []bool{true, false, true}
	for i := range want {
		if pushOK[i] != want[i] {
			t.Fatalf("pushOK = %v, want %v", pushOK, want)
		}
	}
}

func TestPipeFIFOOrderAndNoLoss(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 3)

	const total = 50
	next := 0
	var got []int
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		for next < total && p.Push(next) {
			next++
		}
	}})
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		for {
			v, ok := p.Pop()
			if !ok {
				break
			}
			got = append(got, v)
		}
	}})
	clk.RunCycles(100)

	if len(got) != total {
		t.Fatalf("received %d values, want %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestPipeStats(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 4)
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		if c <= 3 {
			p.Push(int(c))
		}
	}})
	clk.RunCycles(5)
	s := p.Stats()
	if s.Pushes != 3 {
		t.Fatalf("Pushes = %d, want 3", s.Pushes)
	}
	if s.MaxOcc != 3 {
		t.Fatalf("MaxOcc = %d, want 3", s.MaxOcc)
	}
	_ = k
}

// Property: for any sequence of push/pop operations, a Pipe delivers
// exactly the pushed values, in order, with no loss or duplication.
func TestPipeQuickFIFOProperty(t *testing.T) {
	prop := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw%7) + 1
		k := NewKernel()
		clk := NewClock(k, "clk", Nanosecond, 0)
		p := NewPipe[int](clk, "p", capacity)

		var pushed, popped []int
		next := 0
		i := 0
		comp := ClockedFunc{OnEval: func(c int64) {
			if i >= len(ops) {
				return
			}
			op := ops[i]
			i++
			if op%2 == 0 {
				if p.Push(next) {
					pushed = append(pushed, next)
					next++
				}
			} else {
				if v, ok := p.Pop(); ok {
					popped = append(popped, v)
				}
			}
		}}
		clk.Register(comp)
		clk.RunCycles(int64(len(ops)) + int64(capacity) + 2)
		// Drain what's left.
		for {
			v, ok := p.Pop()
			if !ok {
				break
			}
			popped = append(popped, v)
		}
		if len(pushed) != len(popped) {
			return false
		}
		for j := range pushed {
			if pushed[j] != popped[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeWindowBatchAPI(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 8)

	// Empty pipe: empty window, nothing on the commit list.
	if w := p.Window(); len(w) != 0 {
		t.Fatalf("empty pipe Window() len = %d, want 0", len(w))
	}
	if p.staged || len(clk.commit) != 0 {
		t.Fatal("untouched pipe is on the commit list")
	}

	// Staged-but-uncommitted entries are invisible to Window, and the
	// pipe joins the commit list once however often it is pushed.
	for _, v := range []int{10, 20, 30} {
		if !p.Push(v) {
			t.Fatalf("Push(%d) refused with free capacity", v)
		}
	}
	if w := p.Window(); len(w) != 0 {
		t.Fatalf("Window() sees %d staged entries before commit, want 0", len(w))
	}
	if !p.staged || len(clk.commit) != 1 {
		t.Fatalf("after 3 pushes: staged=%v, commit list %d entries; want true, 1", p.staged, len(clk.commit))
	}

	clk.RunCycles(1) // commit
	w := p.Window()
	if len(w) != 3 || w[0] != 10 || w[1] != 20 || w[2] != 30 {
		t.Fatalf("Window() after commit = %v, want [10 20 30]", w)
	}
	if p.staged || len(clk.commit) != 0 {
		t.Fatal("pipe still on the commit list after the commit")
	}

	// Consume removes oldest-first and stages the pipe again: the freed
	// slots return as credit only at the commit (register semantics).
	p.Consume(2)
	if w := p.Window(); len(w) != 1 || w[0] != 30 {
		t.Fatalf("Window() after Consume(2) = %v, want [30]", w)
	}
	if !p.staged || p.CanPush(6) {
		t.Fatalf("after Consume: staged=%v, CanPush(6)=%v; want true, false (credit returns at the commit)", p.staged, p.CanPush(6))
	}
	clk.RunCycles(1)
	if p.staged || !p.CanPush(6) {
		t.Fatalf("one cycle after Consume: staged=%v, CanPush(6)=%v; want false, true", p.staged, p.CanPush(6))
	}

	// Consume beyond the committed count panics.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Consume overrun did not panic")
		}
		if msg, ok := r.(string); !ok || msg != `sim: pipe "p": Consume(2) with 1 committed` {
			t.Fatalf("Consume overrun panic = %v", r)
		}
	}()
	p.Consume(2)
}

func TestPipeWindowConsumeMatchesPop(t *testing.T) {
	// Window+Consume is the batch form of Peek+Pop: draining via either
	// path yields the same values in the same order.
	build := func() (*Clock, *Pipe[int]) {
		k := NewKernel()
		clk := NewClock(k, "clk", Nanosecond, 0)
		p := NewPipe[int](clk, "p", 4)
		for v := 1; v <= 4; v++ {
			p.Push(v)
		}
		clk.RunCycles(1)
		return clk, p
	}

	_, a := build()
	var viaPop []int
	for {
		v, ok := a.Pop()
		if !ok {
			break
		}
		viaPop = append(viaPop, v)
	}

	_, b := build()
	viaWindow := append([]int(nil), b.Window()...)
	b.Consume(len(viaWindow))
	if b.Len() != 0 {
		t.Fatalf("Len() = %d after consuming the full window", b.Len())
	}
	if len(viaPop) != len(viaWindow) {
		t.Fatalf("drain mismatch: pop=%v window=%v", viaPop, viaWindow)
	}
	for i := range viaPop {
		if viaPop[i] != viaWindow[i] {
			t.Fatalf("drain mismatch at %d: pop=%v window=%v", i, viaPop, viaWindow)
		}
	}
}
