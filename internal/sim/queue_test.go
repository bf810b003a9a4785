package sim

import "testing"

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue[int](0)
	if !q.Empty() || q.Len() != 0 || q.Full() {
		t.Fatal("fresh queue not empty")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue succeeded")
	}
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatalf("unbounded Push(%d) refused", i)
		}
	}
	if q.Len() != 100 || q.Full() {
		t.Fatalf("len=%d full=%v", q.Len(), q.Full())
	}
	// FIFO order.
	if v, ok := q.Peek(); !ok || v != 0 {
		t.Fatalf("Peek = %d,%v", v, ok)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop %d = %d,%v", i, v, ok)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestQueueBounded(t *testing.T) {
	q := NewQueue[string](2)
	if !q.Push("a") || !q.Push("b") {
		t.Fatal("pushes within capacity refused")
	}
	if !q.Full() {
		t.Fatal("queue at capacity not Full")
	}
	if q.Push("c") {
		t.Fatal("Push beyond capacity accepted")
	}
	if v, _ := q.Pop(); v != "a" {
		t.Fatalf("Pop = %q", v)
	}
	// Capacity freed: push works again.
	if !q.Push("c") {
		t.Fatal("Push after Pop refused")
	}
}

func TestQueueDrain(t *testing.T) {
	q := NewQueue[int](0)
	for i := 1; i <= 3; i++ {
		q.Push(i)
	}
	got := q.Drain()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Drain = %v", got)
	}
	if !q.Empty() {
		t.Fatal("queue not empty after Drain")
	}
	if got := q.Drain(); len(got) != 0 {
		t.Fatalf("second Drain = %v", got)
	}
}

// TestQueueSteadyStateAllocatesNothing: a queue cycling through a few
// entries, as a traffic source's queues do, keeps its backing array
// and stays FIFO across the compactions.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := NewQueue[int](0)
	next, want := 0, 0
	cycle := func() {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for q.Len() > 1 {
			if v, _ := q.Pop(); v != want {
				t.Fatalf("Pop = %d, want %d", v, want)
			}
			want++
		}
	}
	cycle() // the array grows here, once
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady push/pop allocates %.2f objects per cycle, want 0", allocs)
	}
	if got := q.Drain(); len(got) != 1 || got[0] != want {
		t.Fatalf("Drain = %v, want [%d]", got, want)
	}
}
