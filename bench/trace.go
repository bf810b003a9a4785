package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gonoc/internal/obs"
)

// tracer records spans around every call the benchmark makes into a
// layer. Spans stay in memory and are written as Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing) when the run ends. A nil
// tracer records nothing and costs nothing, which is how the untraced
// runs use the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[int][]int // per thread: stack of open span indices
}

type span struct {
	name, layer string
	tid         int
	start, dur  time.Duration
	parent      int // index of the enclosing span on the same thread, -1 at top level
}

// spanRef identifies an open span; the zero value belongs to a nil tracer.
type spanRef struct {
	idx int
	ok  bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int][]int{}}
}

// start opens a span on thread tid; spans opened before it ends on the
// same thread become its children.
func (t *tracer) start(name, layer string, tid int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[tid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, tid: tid, start: now, parent: parent})
	idx := len(t.spans) - 1
	t.open[tid] = append(t.open[tid], idx)
	return spanRef{idx: idx, ok: true}
}

func (t *tracer) end(r spanRef) {
	if t == nil || !r.ok {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[r.idx]
	s.dur = now - s.start
	st := t.open[s.tid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == r.idx {
			t.open[s.tid] = append(st[:i], st[i+1:]...)
			break
		}
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes sums, per layer, span time and self time: a span's duration
// minus what its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range t.spans {
		r := rows[s.layer]
		if r == nil {
			r = &layerTime{layer: s.layer}
			rows[s.layer] = r
		}
		r.spans++
		r.total += s.dur
		r.self += s.dur - child[i]
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// chromeEvent is one trace_event record ("X" = complete span).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans to path as Chrome trace_event JSON.
func (t *tracer) writeChrome(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := t.encodeChrome(w, workload); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func (t *tracer) encodeChrome(w io.Writer, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "bench " + workload}}}
	threads := map[int]bool{}
	for i, s := range t.spans {
		if !threads[s.tid] {
			threads[s.tid] = true
			name := "main"
			if s.tid > 0 {
				name = fmt.Sprintf("client %d", s.tid)
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: s.tid, Args: map[string]any{"name": name}})
		}
		args := map[string]any{"id": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, chromeEvent{Name: s.name, Cat: s.layer, Ph: "X", TS: us(s.start), Dur: us(s.dur), PID: 1, TID: s.tid, Args: args})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// countProbe counts fabric and NIU events per kind, attached through a
// layer's public Probe field. It reads events and never calls back, so the
// simulation cannot tell it is there (the traced digests prove it).
type countProbe struct {
	kinds    [obs.KindSlaveResp + 1]uint64
	lastSeen int64
	flitPath []uint64 // bitset of packet ids that were switched flit by flit
}

func (c *countProbe) Event(ev obs.Event) {
	if int(ev.Kind) < len(c.kinds) {
		c.kinds[ev.Kind]++
	}
	c.lastSeen = max(c.lastSeen, ev.Cycle)
	if ev.Kind == obs.KindVCAlloc {
		w := int(ev.PktID / 64)
		for len(c.flitPath) <= w {
			c.flitPath = append(c.flitPath, 0)
		}
		c.flitPath[w] |= 1 << (ev.PktID % 64)
	}
}

// flitPathPkts is the number of packets that took the cycle-accurate
// path; the rest of the queued packets were priced analytically.
func (c *countProbe) flitPathPkts() uint64 {
	var n uint64
	for _, w := range c.flitPath {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}
