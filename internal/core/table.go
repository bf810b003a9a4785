package core

import (
	"fmt"

	"gonoc/internal/noctypes"
)

// TableConfig sizes an NIU's transaction state table — the paper's
// "standard NIU state lookup tables (which track for example that a Load
// request is waiting for a response)".
//
// MaxOutstanding and MaxTargets are the two scaling knobs §3 names: an NIU
// may support "one or many simultaneously outstanding transactions and/or
// targets, scaling their gate count to their expected performance".
type TableConfig struct {
	// MaxOutstanding bounds simultaneously in-flight transactions.
	MaxOutstanding int
	// MaxTargets bounds distinct slave nodes with in-flight transactions.
	// 1 means the NIU blocks when the socket switches targets — the
	// cheapest way to keep a fully-ordered socket correct without a
	// reorder buffer.
	MaxTargets int
}

// Validate checks the configuration.
func (c TableConfig) Validate() error {
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("core: MaxOutstanding must be >= 1, got %d", c.MaxOutstanding)
	}
	if c.MaxTargets <= 0 {
		return fmt.Errorf("core: MaxTargets must be >= 1, got %d", c.MaxTargets)
	}
	return nil
}

// Entry is one outstanding transaction tracked by the NIU. Entries live
// in the table's fixed pool: a pointer returned by Complete or
// OldestForTag stays valid only until the table's next Issue.
type Entry struct {
	Tag noctypes.Tag
	Dst noctypes.NodeID
	Cmd Cmd
	// ProtoID, Size and Len record the socket's ordering handle and the
	// burst shape the request was issued with, so an adapter can rebuild
	// its socket response from the entry alone.
	ProtoID int
	Size    uint8
	Len     uint16
	Seq     uint64
	Issue   int64 // cycle of issue, for latency statistics
	// Meta is optional adapter-private context. Storing a non-pointer
	// value boxes it, which allocates; the built-in adapters need only
	// the fields above.
	Meta any
}

// Table tracks outstanding transactions with per-tag FIFO order. The
// transport layer guarantees per-(MstAddr,Tag) in-order delivery, so the
// oldest entry for a tag is, by construction, the one a response for that
// tag belongs to.
//
// Entries come from a pool of MaxOutstanding slots allocated once, and
// each tag keeps a ring of pool indices, so issuing and completing
// transactions allocates nothing once every tag in use has been seen.
type Table struct {
	cfg     TableConfig
	pool    []Entry   // MaxOutstanding slots
	free    []int32   // unused pool slots (a stack)
	perTag  []tagRing // indexed by tag; grown on first use of a tag
	targets map[noctypes.NodeID]int
	count   int
	peak    int
	issued  uint64
}

// tagRing is one tag's FIFO of pool indices, oldest first.
type tagRing struct {
	idx  []int32 // MaxOutstanding slots, allocated on the tag's first issue
	head int
	n    int
}

func (q *tagRing) at(i int) int32 { return q.idx[(q.head+i)%len(q.idx)] }

// NewTable returns an empty table; cfg must validate.
func NewTable(cfg TableConfig) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Table{
		cfg:     cfg,
		pool:    make([]Entry, cfg.MaxOutstanding),
		free:    make([]int32, cfg.MaxOutstanding),
		targets: make(map[noctypes.NodeID]int),
	}
	for i := range t.free {
		t.free[i] = int32(cfg.MaxOutstanding - 1 - i)
	}
	return t
}

// Config returns the table's configuration.
func (t *Table) Config() TableConfig { return t.cfg }

// ring returns tag's FIFO, or nil if the tag has never been issued.
func (t *Table) ring(tag noctypes.Tag) *tagRing {
	if int(tag) < len(t.perTag) {
		return &t.perTag[tag]
	}
	return nil
}

// CanIssue reports whether a transaction with the given tag and target can
// be accepted now (capacity and target-set checks). Refusal means the NIU
// back-pressures its socket.
//
// Beyond the sizing limits, CanIssue enforces the same-tag/same-target
// hazard rule: the fabric only guarantees per-(MstAddr,Tag) order along
// one path, so a tag with transactions in flight to slave A must drain
// before it may address slave B. This is the NoC materialization of the
// AXI "same ID to different slaves" stall, and it is what keeps a cheap
// fully-ordered (single-tag) NIU correct with any MaxTargets setting.
func (t *Table) CanIssue(tag noctypes.Tag, dst noctypes.NodeID) bool {
	if t.count >= t.cfg.MaxOutstanding {
		return false
	}
	if q := t.ring(tag); q != nil && q.n > 0 && t.pool[q.at(q.n-1)].Dst != dst {
		return false
	}
	if _, known := t.targets[dst]; !known && len(t.targets) >= t.cfg.MaxTargets {
		return false
	}
	return true
}

// Issue records a copy of e as a new outstanding transaction. It panics
// if CanIssue is false — callers must check first (the check/act split
// mirrors the ready/valid handshake of the hardware).
func (t *Table) Issue(e *Entry) {
	if !t.CanIssue(e.Tag, e.Dst) {
		panic(fmt.Sprintf("core: Issue without CanIssue (tag=%v dst=%v count=%d)", e.Tag, e.Dst, t.count))
	}
	if int(e.Tag) >= len(t.perTag) {
		t.perTag = append(t.perTag, make([]tagRing, int(e.Tag)+1-len(t.perTag))...)
	}
	q := &t.perTag[e.Tag]
	if q.idx == nil {
		q.idx = make([]int32, t.cfg.MaxOutstanding)
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.pool[i] = *e
	q.idx[(q.head+q.n)%len(q.idx)] = i
	q.n++
	t.targets[e.Dst]++
	t.count++
	t.issued++
	if t.count > t.peak {
		t.peak = t.count
	}
}

// Complete retires the oldest outstanding transaction for tag and returns
// its entry, valid until the next Issue. It returns an error if no
// transaction with that tag is outstanding — which, given transport
// per-tag ordering, indicates a protocol violation somewhere upstream.
func (t *Table) Complete(tag noctypes.Tag) (*Entry, error) {
	q := t.ring(tag)
	if q == nil || q.n == 0 {
		return nil, fmt.Errorf("core: response for %v with no outstanding transaction", tag)
	}
	i := q.at(0)
	q.head = (q.head + 1) % len(q.idx)
	q.n--
	t.free = append(t.free, i)
	e := &t.pool[i]
	t.targets[e.Dst]--
	if t.targets[e.Dst] == 0 {
		delete(t.targets, e.Dst)
	}
	t.count--
	return e, nil
}

// Outstanding returns the number of in-flight transactions.
func (t *Table) Outstanding() int { return t.count }

// OldestForTag returns the entry a response for tag will retire, or nil.
// The entry is valid until the next Issue.
func (t *Table) OldestForTag(tag noctypes.Tag) *Entry {
	if q := t.ring(tag); q != nil && q.n > 0 {
		return &t.pool[q.at(0)]
	}
	return nil
}

// ActiveTargets returns the number of distinct targets in flight.
func (t *Table) ActiveTargets() int { return len(t.targets) }

// Peak returns the highest simultaneous occupancy observed.
func (t *Table) Peak() int { return t.peak }

// Issued returns the cumulative number of issued transactions.
func (t *Table) Issued() uint64 { return t.issued }
