package sim

import "math/rand"

// RNG is a deterministic random source. Every stochastic decision in the
// simulator draws from an RNG forked (by label) from the experiment's root
// seed, so adding a new consumer of randomness does not perturb existing
// streams.
//
// The generator is math/rand's, copied into this package (source), and
// the embedded *rand.Rand draws from it, so every method yields the
// stream rand.New(rand.NewSource(seed)) would. Bool reads the source
// directly.
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

// Range returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) Range(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}
