package core

// The paper (§3): handling AXI and OCP exclusive access "only requires
// adding a single user-defined bit in the packets, and state information
// in the NIU. This optional packet bit becomes simply part of a family of
// similar 'NoC services' that can be activated in a particular NoC
// configuration."
//
// UserBits is that family: one byte of optional, configuration-defined
// packet bits that the transport layer carries but never interprets.

// User-bit assignments for the services this repository implements.
const (
	// UserBitExclusive marks an exclusive-access transaction
	// (AXI exclusive read/write, OCP ReadLinked/WriteConditional).
	UserBitExclusive uint8 = 1 << 0
)

// ServiceSet describes which optional NoC services a configuration
// activates. Inactive services cost no packet bits and no NIU state.
type ServiceSet struct {
	// Exclusive enables the exclusive-access service (the user bit plus
	// the slave-NIU monitor table).
	Exclusive bool
	// LegacyLock enables READEX/LOCK-style locked sequences. Unlike
	// Exclusive, this service is transport-visible: switches reserve
	// arbitration paths when they see lock-flagged packets (§3).
	LegacyLock bool
}

// UserBitsFor derives the packet user bits for a request under this
// service set. Requests using a disabled service keep the bit clear; the
// slave NIU will answer StErrUnsupported.
func (s ServiceSet) UserBitsFor(r *Request) uint8 {
	var b uint8
	if s.Exclusive && r.Exclusive {
		b |= UserBitExclusive
	}
	return b
}
