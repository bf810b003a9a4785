package mem

import "slices"

// Ring hands out the read buffers of a memory whose responses wait in a
// pipe of depth d: a buffer is handed out again only after d later
// ones, by which time its reader has popped the response carrying it.
// A reader that keeps the data past that copies it.
type Ring struct {
	bufs [][]byte
	next int
}

// NewRing returns a ring for a response pipe of depth d.
func NewRing(d int) Ring { return Ring{bufs: make([][]byte, d+1)} }

// Next returns the next buffer, n bytes long; its old contents are
// undefined.
func (r *Ring) Next(n int) []byte {
	b := slices.Grow(r.bufs[r.next][:0], n)[:n]
	r.bufs[r.next] = b
	r.next = (r.next + 1) % len(r.bufs)
	return b
}
