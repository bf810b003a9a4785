package sim

// Queue is a plain unbounded-or-bounded FIFO with immediate visibility,
// for bookkeeping inside a single component (no register semantics).
// A capacity of 0 means unbounded. Pop advances a head index instead of
// reslicing, and Push compacts with DropFront before the backing array
// would grow, so a queue cycling through a few entries keeps its array.
type Queue[T any] struct {
	buf  []T // buf[head:] are the queued entries
	head int
	cap  int
}

// NewQueue returns a queue; capacity 0 means unbounded.
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{cap: capacity}
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Empty reports whether the queue is empty.
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Full reports whether a bounded queue is at capacity.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.Len() >= q.cap }

// Push appends v; it returns false if the queue is full.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		q.buf, q.head = DropFront(q.buf, q.head), 0
	}
	q.buf = append(q.buf, v)
	return true
}

// Peek returns the head without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.Empty() {
		return zero, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the head.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.Empty() {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	return v, true
}

// Drain removes and returns all entries in FIFO order.
func (q *Queue[T]) Drain() []T {
	out := q.buf[q.head:]
	q.buf, q.head = nil, 0
	return out
}

// DropFront removes q's first k elements by shifting the rest down, so
// a slice used as a FIFO keeps its backing array and later appends
// reuse it, where a resliced window would creep forward and reallocate.
func DropFront[T any](q []T, k int) []T {
	n := copy(q, q[k:])
	clear(q[n:])
	return q[:n]
}

// PushOne moves the head of q onto pipe if the pipe has room, returning
// the (possibly shortened) queue: the one-beat-per-cycle response drain
// that socket adapters and memories share.
func PushOne[T any](q []T, pipe *Pipe[T]) []T {
	if len(q) > 0 && pipe.CanPush(1) {
		pipe.Push(q[0])
		q = DropFront(q, 1)
	}
	return q
}
