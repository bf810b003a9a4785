package axi

import "fmt"

// Checker validates AXI channel rules incrementally from a master-side
// perspective. Violations accumulate in Errs; tests assert it stays
// empty. Checked rules:
//
//   - R beats only for IDs with an outstanding read; RLAST exactly on the
//     final beat of the oldest outstanding burst for that ID (per-ID
//     order).
//   - W beats strictly in AW order; WLAST exactly on each burst's final
//     beat; no W beat without a posted AW.
//   - B only for IDs with an outstanding, fully-sent write (per-ID
//     order).
//   - EXOKAY only on transactions that requested Lock.
type Checker struct {
	reads    map[int][]arState
	writes   map[int][]awState
	wPending []awRef // AW bursts whose W data is not yet complete, in order
	errs     []error
	rCount   map[int]int // beats received for the oldest burst per ID
}

type arState struct {
	beats int
	lock  bool
}

type awState struct {
	lock     bool
	dataDone bool
}

type awRef struct {
	id        int
	beatsLeft int
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{
		reads:  make(map[int][]arState),
		writes: make(map[int][]awState),
		rCount: make(map[int]int),
	}
}

func (c *Checker) errf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("axi checker: "+format, args...))
}

// Errs returns accumulated violations.
func (c *Checker) Errs() []error { return c.errs }

// OnAR records a read-address transfer.
func (c *Checker) OnAR(ar ARBeat) {
	c.reads[ar.ID] = append(c.reads[ar.ID], arState{beats: ar.Beats(), lock: ar.Lock})
}

// OnR validates a read-data transfer.
func (c *Checker) OnR(r RBeat) {
	q := c.reads[r.ID]
	if len(q) == 0 {
		c.errf("R beat for ID %d with no outstanding read", r.ID)
		return
	}
	st := q[0]
	if r.Resp == RespEXOKAY && !st.lock {
		c.errf("EXOKAY for non-exclusive read ID %d", r.ID)
	}
	c.rCount[r.ID]++
	isLast := c.rCount[r.ID] == st.beats
	if r.Last != isLast {
		c.errf("RLAST=%v on beat %d/%d for ID %d", r.Last, c.rCount[r.ID], st.beats, r.ID)
	}
	if isLast || r.Last {
		c.reads[r.ID] = q[1:]
		c.rCount[r.ID] = 0
	}
}

// OnAW records a write-address transfer.
func (c *Checker) OnAW(aw AWBeat) {
	c.writes[aw.ID] = append(c.writes[aw.ID], awState{lock: aw.Lock})
	c.wPending = append(c.wPending, awRef{id: aw.ID, beatsLeft: aw.Beats()})
}

// OnW validates a write-data transfer.
func (c *Checker) OnW(w WBeat) {
	if len(c.wPending) == 0 {
		c.errf("W beat with no pending AW")
		return
	}
	ref := &c.wPending[0]
	ref.beatsLeft--
	isLast := ref.beatsLeft == 0
	if w.Last != isLast {
		c.errf("WLAST=%v with %d beats left for ID %d", w.Last, ref.beatsLeft, ref.id)
	}
	if isLast || w.Last {
		// Mark the oldest not-yet-complete write for this ID as data-done.
		q := c.writes[ref.id]
		for i := range q {
			if !q[i].dataDone {
				q[i].dataDone = true
				break
			}
		}
		c.wPending = c.wPending[1:]
	}
}

// OnB validates a write-response transfer.
func (c *Checker) OnB(b BBeat) {
	q := c.writes[b.ID]
	if len(q) == 0 {
		c.errf("B for ID %d with no outstanding write", b.ID)
		return
	}
	st := q[0]
	if !st.dataDone {
		c.errf("B for ID %d before write data completed", b.ID)
	}
	if b.Resp == RespEXOKAY && !st.lock {
		c.errf("EXOKAY for non-exclusive write ID %d", b.ID)
	}
	c.writes[b.ID] = q[1:]
}
