package mem

// Monitor is an exclusive-access reservation table: at most one live
// reservation per key K (a NoC master in the slave NIU, an AXI ID or an
// OCP thread in a memory). Its rules are AXI's exclusive monitor and
// OCP's lazy synchronization:
//   - Reserve (an exclusive read) replaces k's reservation;
//   - an exclusive write by k may take effect iff Holds(k, ...) for its
//     span; a failed one writes nothing;
//   - every write that takes effect calls Wrote, which clears every
//     overlapping reservation, the writer's own included.
//
// The zero Monitor is empty and ready to use; it allocates its table
// on the first Reserve.
type Monitor[K comparable] struct {
	res map[K]span
}

type span struct{ lo, hi uint64 }

// Reserve records k's reservation over [lo, hi).
func (m *Monitor[K]) Reserve(k K, lo, hi uint64) {
	if m.res == nil {
		m.res = make(map[K]span)
	}
	m.res[k] = span{lo, hi}
}

// Holds reports whether k holds a reservation covering [lo, hi).
func (m *Monitor[K]) Holds(k K, lo, hi uint64) bool {
	r, ok := m.res[k]
	return ok && r.lo <= lo && hi <= r.hi
}

// Wrote clears every reservation overlapping [lo, hi).
func (m *Monitor[K]) Wrote(lo, hi uint64) {
	for k, r := range m.res {
		if r.lo < hi && lo < r.hi {
			delete(m.res, k)
		}
	}
}
