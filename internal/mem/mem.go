// Package mem provides the byte-addressable backing store shared by all
// memory-target IP models, and the memory-side rules every socket maps
// onto: burst addressing (Burst, Backing.ReadBurst and WriteBurst),
// write byte enables (AppendEnables), exclusive reservations (Monitor)
// and read-buffer rings (Ring). It is deliberately protocol-free: each
// socket's memory slave wraps one Backing, maps its own burst encoding
// onto Burst and speaks its own protocol on top, and the slave NIU keys
// its exclusive monitor here.
package mem

import "fmt"

const pageBits = 12 // 4 KiB pages
const pageSize = 1 << pageBits

// Backing is a sparse byte-addressable memory. Unwritten bytes read as
// zero. Not safe for concurrent use; the simulator is single-threaded by
// design.
type Backing struct {
	pages         map[uint64][]byte
	size          uint64 // address-space bound; 0 = unbounded
	reads, writes uint64

	// lastKey and last remember the page that page returned last (last
	// is nil before the first). Bursts walk one page beat by beat, and
	// pages are never deleted, so the remembered one stays valid.
	lastKey uint64
	last    []byte
}

// NewBacking returns a store bounded to size bytes (0 = unbounded).
func NewBacking(size uint64) *Backing {
	return &Backing{pages: make(map[uint64][]byte), size: size}
}

// Size returns the configured bound (0 = unbounded).
func (b *Backing) Size() uint64 { return b.size }

// InBounds reports whether [addr, addr+n) lies within the store.
func (b *Backing) InBounds(addr uint64, n int) bool {
	if n < 0 {
		return false
	}
	end := addr + uint64(n)
	if end < addr {
		return false
	}
	return b.size == 0 || end <= b.size
}

// page returns the page holding addr, making it first if create is set;
// without create, an unwritten page is nil, and a nil page is not
// remembered, so a later write still makes it.
func (b *Backing) page(addr uint64, create bool) []byte {
	key := addr >> pageBits
	if b.last != nil && key == b.lastKey {
		return b.last
	}
	p, ok := b.pages[key]
	if !ok {
		if !create {
			return nil
		}
		p = make([]byte, pageSize)
		b.pages[key] = p
	}
	b.lastKey, b.last = key, p
	return p
}

// Read copies n bytes starting at addr into a new slice.
func (b *Backing) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	b.ReadInto(addr, out)
	return out
}

// ReadInto copies len(dst) bytes starting at addr into dst, so a caller
// that reuses its buffer reads without allocating.
func (b *Backing) ReadInto(addr uint64, dst []byte) {
	n := len(dst)
	if !b.InBounds(addr, n) {
		panic(fmt.Sprintf("mem: read [%#x,+%d) out of bounds (size %#x)", addr, n, b.size))
	}
	for i := 0; i < n; {
		p := b.page(addr+uint64(i), false)
		off := int((addr + uint64(i)) & (pageSize - 1))
		chunk := min(pageSize-off, n-i)
		if p != nil {
			copy(dst[i:i+chunk], p[off:off+chunk])
		} else {
			clear(dst[i : i+chunk])
		}
		i += chunk
	}
	b.reads++
}

// Write stores data at addr. If be is non-nil, only bytes with a non-zero
// byte-enable are written.
func (b *Backing) Write(addr uint64, data, be []byte) {
	if !b.InBounds(addr, len(data)) {
		panic(fmt.Sprintf("mem: write [%#x,+%d) out of bounds (size %#x)", addr, len(data), b.size))
	}
	if be != nil && len(be) != len(data) {
		panic(fmt.Sprintf("mem: byte-enable length %d != data length %d", len(be), len(data)))
	}
	for i := range data {
		if be != nil && be[i] == 0 {
			continue
		}
		p := b.page(addr+uint64(i), true)
		p[(addr+uint64(i))&(pageSize-1)] = data[i]
	}
	b.writes++
}

// AppendEnables appends the byte enables of an n-byte beat to dst: be
// itself, or n enabled bytes when the beat carries none (Write's nil).
func AppendEnables(dst, be []byte, n int) []byte {
	if be != nil {
		return append(dst, be...)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, 0xFF)
	}
	return dst
}

// Accesses returns cumulative read and write operation counts.
func (b *Backing) Accesses() (reads, writes uint64) { return b.reads, b.writes }
