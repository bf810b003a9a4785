package mem

// Burst is a burst's address progression, the one rule every socket's
// burst encoding maps onto:
//
//   - Fixed: every beat hits the start address (a FIFO register);
//   - Wrap > 0: beats increment but wrap within the aligned window of
//     Wrap beats that holds the start address (AHB WRAP4/8/16, AXI and
//     OCP WRAP, WISHBONE's BTE modulo); a window that is not a power of
//     two bytes increments instead, as real fabrics do with illegal
//     wrap lengths;
//   - otherwise beats increment by the beat size.
type Burst struct {
	Fixed bool
	Wrap  int // wrap window in beats; 0 never wraps
}

// Addr returns the byte address of beat i (0-based) of a burst of
// size-byte beats starting at addr.
func (b Burst) Addr(addr uint64, size uint8, i int) uint64 {
	s := uint64(size)
	if b.Fixed {
		return addr
	}
	window := uint64(b.Wrap) * s
	if window == 0 || window&(window-1) != 0 {
		return addr + uint64(i)*s
	}
	base := addr &^ (window - 1)
	return base + (addr+uint64(i)*s-base)%window
}

// Span returns the low and exclusive high byte addresses a burst of
// beats beats touches (the span an exclusive reservation covers).
func (b Burst) Span(addr uint64, size uint8, beats int) (lo, hi uint64) {
	lo, hi = addr, addr
	for i := 0; i < beats; i++ {
		a := b.Addr(addr, size, i)
		lo, hi = min(lo, a), max(hi, a+uint64(size))
	}
	return lo, hi
}

// ReadBurst reads a burst of len(dst)/size beats into dst, beat i from
// b.Addr(addr, size, i) - base: a memory mapped at base serves the
// burst its socket addressed.
func (s *Backing) ReadBurst(dst []byte, b Burst, addr, base uint64, size uint8) {
	n := int(size)
	for i := 0; i < len(dst)/n; i++ {
		s.ReadInto(b.Addr(addr, size, i)-base, dst[i*n:(i+1)*n])
	}
}

// WriteBurst writes data as a burst addressed like ReadBurst, one Write
// per beat, each with that beat's bytes of be as its enables (nil
// enables every byte).
func (s *Backing) WriteBurst(data, be []byte, b Burst, addr, base uint64, size uint8) {
	n := int(size)
	for i := 0; i < len(data)/n; i++ {
		var en []byte
		if be != nil {
			en = be[i*n : (i+1)*n]
		}
		s.Write(b.Addr(addr, size, i)-base, data[i*n:(i+1)*n], en)
	}
}
