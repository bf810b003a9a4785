package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// worker is a sleeping component for the active-set tests: it owns a
// work counter other workers add to (waking it), reads one pipe, and on
// every unit of work records a trace line and hands work to a worker and
// a pipe chosen by a hash of its state, so runs in both modes take the
// same decisions only if they evaluate the same work at the same cycles.
type worker struct {
	id    int
	w     Waker
	clk   *Clock
	work  int
	in    *Pipe[int]
	peers []*worker
	pipes []*Pipe[int]
	trace *[]string
	steps int
	seed  uint64
	last  int64 // reference mode: the cycle of the last Eval
}

func (w *worker) hash(n int) int {
	x := w.seed ^ uint64(w.id)<<32 ^ uint64(w.steps)*0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int(x % uint64(n))
}

func (w *worker) Eval(cycle int64) {
	if w.clk.every {
		w.last = cycle
	}
	got, ok := w.in.Pop()
	if !ok && w.work == 0 {
		return
	}
	if !ok {
		w.work--
	}
	w.steps++
	peer := w.peers[w.hash(len(w.peers))]
	// A peer's last-Eval stamp must read the same in both modes.
	stamp := peer.last
	if !w.clk.every {
		stamp = peer.w.LastEval()
	}
	*w.trace = append(*w.trace, fmt.Sprintf("c%d w%d got%d stamp(w%d)=%d", cycle, w.id, got, peer.id, stamp))
	if w.steps < 40 {
		if w.hash(3) == 0 {
			w.pipes[w.hash(len(w.pipes))].Push(w.id)
		} else {
			peer.work++
			peer.w.Wake()
		}
	}
}

func (w *worker) Idle() bool { return w.work == 0 && w.in.Empty() }

// runWorkers builds n workers (plus one never-sleeping component that
// hands out work from the middle of the scan) and returns the trace,
// the evaluation count and every pipe's statistics.
func runWorkers(seed uint64, n int, every bool) ([]string, uint64, []PipeStats) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	var trace []string
	ws := make([]*worker, n)
	pipes := make([]*Pipe[int], n)
	for i := range ws {
		pipes[i] = NewPipe[int](clk, fmt.Sprintf("p%d", i), 4)
		ws[i] = &worker{id: i, clk: clk, in: pipes[i], trace: &trace, seed: seed}
	}
	for i, w := range ws {
		w.peers, w.pipes = ws, pipes
		if i == n/2 {
			kick := &worker{id: -1, clk: clk, seed: seed, peers: ws}
			clk.Register(ClockedFunc{OnEval: func(c int64) {
				if c%7 == 3 {
					kick.steps++
					p := ws[kick.hash(n)]
					p.work++
					p.w.Wake()
				}
			}})
		}
		w.w = clk.Register(w)
		pipes[i].SetConsumer(w.w)
	}
	if every {
		clk.EvalEveryCycle()
	}
	ws[0].work = 1
	clk.RunCycles(300)
	return trace, clk.Evals(), clk.PipeStats()
}

// TestActiveSetMatchesReference: waking before or after the scan
// position, pipe-commit wakes and LastEval stamps make an active-set run
// do exactly the work of the evaluate-everything reference, on fewer
// evaluations.
func TestActiveSetMatchesReference(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%70) + 2 // spans one and two bitset words
		ref, refEvals, refPipes := runWorkers(seed, n, true)
		got, evals, pipes := runWorkers(seed, n, false)
		if fmt.Sprint(ref) != fmt.Sprint(got) || fmt.Sprint(refPipes) != fmt.Sprint(pipes) {
			t.Logf("seed %d n %d: traces differ\nref %v\ngot %v", seed, n, ref, got)
			return false
		}
		return len(ref) > 0 && evals < refEvals
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSleepingComponentIsNotEvaluated: an idle component leaves the
// active set after its Eval, and a wake brings it back for one Eval.
func TestSleepingComponentIsNotEvaluated(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	var evals []int64
	s := &sleeper{onEval: func(c int64) { evals = append(evals, c) }}
	s.w = clk.Register(s)
	clk.RunCycles(10)
	base := clk.Evals()
	clk.RunCycles(10)
	if clk.Evals() != base {
		t.Fatalf("idle component evaluated %d times in 10 cycles", clk.Evals()-base)
	}
	s.w.Wake() // between edges: runs in the next edge
	clk.RunCycles(3)
	if fmt.Sprint(evals) != "[1 21]" {
		t.Fatalf("evaluated at cycles %v, want [1 21]", evals)
	}
}

type sleeper struct {
	w      Waker
	onEval func(int64)
}

func (s *sleeper) Eval(c int64) { s.onEval(c) }
func (s *sleeper) Idle() bool   { return true }

// TestPipeStatsClosedForm: occupancy credited in closed form for the
// cycles nobody touched a pipe equals the per-cycle sum of its
// committed length.
func TestPipeStatsClosedForm(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", Nanosecond, 0)
	p := NewPipe[int](clk, "p", 4)
	var sum uint64
	var ticks uint64
	clk.Register(ClockedFunc{OnEval: func(c int64) {
		if c > 1 {
			sum += uint64(p.Len()) // committed length at the end of cycle c-1
			ticks++
		}
		switch c {
		case 1, 2, 7, 8:
			p.Push(int(c))
		case 5, 12:
			p.Pop()
		}
	}})
	clk.RunCycles(30)
	sum += uint64(p.Len())
	ticks++
	s := p.Stats()
	if want := float64(sum) / float64(ticks); s.AvgOcc != want || s.MaxOcc != 3 || s.Pushes != 4 || s.Pops != 2 {
		t.Fatalf("stats %+v, want AvgOcc %v MaxOcc 3 Pushes 4 Pops 2", s, want)
	}
}
