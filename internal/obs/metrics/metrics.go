// Package metrics is the repo's dependency-free live-metrics registry:
// counters, gauges, and histograms with Prometheus text-format
// exposition, periodic JSONL snapshots, and simulator self-profiling
// (cycles/sec, wall-clock per phase, campaign progress, heap usage).
//
// The package follows the same two invariants as obs.Probe:
//
//   - Disabled costs nothing. Every handle type (*Counter, *Gauge,
//     *Histogram) and the *Registry itself are nil-safe: methods on a
//     nil receiver are no-ops that never allocate, so call sites can
//     hold a possibly-nil handle unconditionally on the hot path.
//   - Enabled never perturbs. Instrumentation reads simulation state;
//     it must not feed anything back. All mutation is atomic, so a
//     concurrent HTTP scrape (or campaign workers sharing one
//     registry) never races a running kernel.
//
// Registration (Registry.Counter etc.) takes a mutex and may allocate;
// it belongs in setup code. The returned handles are lock-free.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric sample.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// familyType distinguishes exposition rendering.
type familyType uint8

const (
	typeCounter familyType = iota
	typeGauge
	typeHistogram
)

func (t familyType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is one labeled instance within a family: a *Counter, *Gauge,
// *gaugeFunc or *Histogram.
type sample any

// family groups all samples sharing a metric name.
type family struct {
	name    string
	help    string
	typ     familyType
	byLabel map[string]sample
}

// flat is one sample of the registry dump (Each): its qualified key,
// built once at registration, and the sample it reads. A histogram
// contributes two, its _sum and its _count.
type flat struct {
	key   string
	s     sample
	count bool // a histogram's _count entry (its _sum otherwise)
}

func (e *flat) value() float64 {
	switch s := e.s.(type) {
	case *Counter:
		return float64(s.Value())
	case *Gauge:
		return s.Value()
	case *gaugeFunc:
		return s.fn()
	case *Histogram:
		if e.count {
			return float64(s.Count())
		}
		return float64(s.Sum())
	}
	return 0
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is the disabled registry: every
// registration returns a nil handle and every read renders nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// flats is the dump's sample list. It is sorted by key unless a
	// registration has appended to it since the last dump.
	flats  []flat
	sorted bool
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// appendLabels appends the canonical label string of labels to b:
// sorted by key, in the Prometheus {k="v",k2="v2"} form (nothing when
// unlabeled). Label sets are a few pairs, so it sorts a copy by
// insertion; the copy stays on the stack for up to four labels.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	var arr [4]Label
	ls := append(arr[:0], labels...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	b = append(b, '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=', '"')
		b = appendLabelValue(b, l.Value)
		b = append(b, '"')
	}
	return append(b, '}')
}

func appendLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}

// getFamily returns the family for name, creating it on first use. It
// panics when name is reused with a different type — that is a
// programming error a test should catch immediately, not a runtime
// condition.
func (r *Registry) getFamily(name, help string, typ familyType) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]sample)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// find looks name+labels up. It returns the family and either the
// registered sample or, when there is none, the qualified key (name
// plus label string), the one allocation of a lookup that misses. Call
// with r.mu held.
func (r *Registry) find(name, help string, typ familyType, labels []Label) (*family, sample, string) {
	f := r.getFamily(name, help, typ)
	b := appendLabels(append(make([]byte, 0, 96), name...), labels)
	if s, ok := f.byLabel[string(b[len(name):])]; ok {
		return f, s, ""
	}
	return f, nil, string(b)
}

// add registers s under its qualified key, with the dump entries that
// read it. Call with r.mu held.
func (r *Registry) add(f *family, key string, s sample, es ...flat) {
	f.byLabel[key[len(f.name):]] = s
	r.flats = append(r.flats, es...)
	r.sorted = false
}

// dump returns the dump's samples sorted by key. A list already sorted
// is returned as kept. Otherwise a sorted copy replaces it, so a caller
// still walking an earlier list never sees it move; registration only
// appends past the end of any list handed out.
func (r *Registry) dump() []flat {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		r.flats = slices.Clone(r.flats)
		slices.SortFunc(r.flats, func(a, b flat) int { return strings.Compare(a.key, b.key) })
		r.sorted = true
	}
	return r.flats
}

// Counter is a monotonically increasing uint64. A nil *Counter is a
// no-op handle.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the counter for name+labels, creating it on first
// use; repeated calls with the same name and labels return the same
// handle. On a nil registry it returns nil (the no-op handle).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s, key := r.find(name, help, typeCounter, labels)
	if s != nil {
		return s.(*Counter)
	}
	c := &Counter{}
	r.add(f, key, c, flat{key: key, s: c})
	return c
}

// Gauge is a float64 that can go up and down. A nil *Gauge is a no-op
// handle.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (atomically, CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reads the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s, key := r.find(name, help, typeGauge, labels)
	if s != nil {
		return s.(*Gauge)
	}
	g := &Gauge{}
	r.add(f, key, g, flat{key: key, s: g})
	return g
}

// gaugeFunc samples a callback at read time (exposition / snapshot).
type gaugeFunc struct {
	fn func() float64
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. fn must be safe to call from the HTTP goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s, key := r.find(name, help, typeGauge, labels)
	if s != nil {
		panic(fmt.Sprintf("metrics: duplicate GaugeFunc %s%s", name, appendLabels(nil, labels)))
	}
	g := &gaugeFunc{fn: fn}
	r.add(f, key, g, flat{key: key, s: g})
}

// Histogram counts int64 observations into fixed buckets (Prometheus
// cumulative-le semantics: bucket i counts observations <= bounds[i],
// plus an implicit +Inf bucket). A nil *Histogram is a no-op handle.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum     atomic.Int64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reads the number of observations (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observations (0 on a nil handle).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Histogram returns the histogram for name+labels with the given
// ascending bucket bounds, creating it on first use (later calls keep
// the first bounds).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not ascending: %v", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s, key := r.find(name, help, typeHistogram, labels)
	if s != nil {
		return s.(*Histogram)
	}
	h := &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	lbl := key[len(name):]
	r.add(f, key, h, flat{key: name + "_sum" + lbl, s: h}, flat{key: name + "_count" + lbl, s: h, count: true})
	return h
}
