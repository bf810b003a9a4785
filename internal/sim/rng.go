package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source. Every stochastic decision in the
// simulator draws from an RNG forked (by label) from the experiment's root
// seed, so adding a new consumer of randomness does not perturb existing
// streams.
//
// The generator is math/rand's, copied into this package (source), and
// the embedded *rand.Rand draws from it, so every method yields the
// stream rand.New(rand.NewSource(seed)) would. Bool and Until read the
// source directly.
type RNG struct {
	*rand.Rand
	src  source
	seed int64
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{seed: seed}
	r.src.Seed(seed)
	r.Rand = rand.New(&r.src)
	return r
}

// Seed returns the seed this RNG was created with.
func (r *RNG) Seed() int64 { return r.seed }

// ForkSeed returns the seed Fork gives the child labelled label of an
// RNG seeded with seed: the 64-bit FNV-1a hash of the seed's eight
// little-endian bytes followed by the label. A caller that needs only
// the child's seed, or forks from a root it never draws from, takes it
// here without seeding a generator.
func ForkSeed(seed int64, label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(seed) >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return int64(h)
}

// Fork derives an independent RNG whose seed is a hash of this RNG's seed
// and the label (ForkSeed). Forking is stable: the same (seed, label)
// always yields the same stream, independent of draw order on the parent.
func (r *RNG) Fork(label string) *RNG { return NewRNG(ForkSeed(r.seed, label)) }

// Bool returns true with probability p. It draws what Float64 draws —
// one Int63 scaled to [0, 1), drawn again in the rare case the scaling
// rounds up to 1 — so the stream is the same.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	for {
		if f := float64(r.src.Int63()) / (1 << 63); f != 1 {
			return f < p
		}
	}
}

// Until returns how many of up to n ≥ 0 Bool(p) draws come out false
// before the first true one: n when none of the n is true. It makes
// exactly the draws those Bool calls would make, so the stream it
// leaves is theirs. Each draw compares the raw Int63 x with
// boolBound(p), worked out once per call, and discards x ≥ redraw as
// Bool does.
func (r *RNG) Until(p float64, n int64) int64 {
	switch {
	case p <= 0:
		return n // Bool(p) is false without drawing
	case p >= 1:
		return 0 // Bool(p) is true without drawing
	}
	return r.src.until(boolBound(p), n)
}

// redraw is the least Int63 that Float64 scales to 1 and Bool draws
// again: 2⁶³−512 lies halfway between the float64s 2⁶³−1024 and 2⁶³,
// and the tie rounds to 2⁶³'s even mantissa.
const redraw = 1<<63 - 512

// boolBound returns the smallest x with float64(x)/2⁶³ ≥ p, for p in
// (0, 1), so that Bool(p)'s draw x is true exactly when x < boolBound(p).
// Dividing by 2⁶³ is exact, so the test is float64(x) ≥ t for
// t = p·2⁶³. Up to 2⁵³ every integer is a float64 and the bound is ⌈t⌉.
// Above 2⁵³, t is an integer and the integers just below it round up to
// it: from the midpoint between t and the float64 below it when that
// tie rounds to t (an even mantissa), else from one past the midpoint.
func boolBound(p float64) uint64 {
	t := p * (1 << 63)
	if !(t > 0) {
		return 0 // NaN: Bool(NaN) is false on every draw
	}
	x := uint64(math.Ceil(t))
	if x > 1<<53 {
		x -= (x - uint64(math.Nextafter(t, 0))) / 2
		if float64(x) < t {
			x++
		}
	}
	return x
}

// Range returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) Range(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}
