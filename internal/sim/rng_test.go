package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	if a.Seed() != 42 {
		t.Fatalf("Seed = %d", a.Seed())
	}
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	if NewRNG(1).Int63() == NewRNG(2).Int63() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRNGForkStable(t *testing.T) {
	// Forking is by (seed, label) only: draw order on the parent must
	// not perturb the child stream.
	a := NewRNG(7)
	for i := 0; i < 10; i++ {
		a.Int63() // consume some parent entropy
	}
	fromDrawn := a.Fork("child").Int63()
	fromFresh := NewRNG(7).Fork("child").Int63()
	if fromDrawn != fromFresh {
		t.Fatal("fork stream depends on parent draw position")
	}
	// Distinct labels give independent streams.
	if NewRNG(7).Fork("x").Int63() == NewRNG(7).Fork("y").Int63() {
		t.Fatal("distinct labels produced identical first draw")
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) || !r.Bool(1.5) {
			t.Fatal("out-of-range probabilities mishandled")
		}
	}
	hits := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) hit fraction %.3f", frac)
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("Range(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Fatalf("Range(3,7) never produced %d", v)
		}
	}
	// Degenerate and inverted bounds collapse to lo.
	if r.Range(5, 5) != 5 || r.Range(9, 4) != 9 {
		t.Fatal("degenerate Range wrong")
	}
}

// rngOp draws one value by op from the RNG under test and from
// math/rand's own generator; the two must be equal.
func rngOp(t *testing.T, op byte, got *RNG, want *rand.Rand) {
	t.Helper()
	var g, w any
	switch op % 12 {
	case 0, 1, 2:
		p := []float64{0.002, 0.3, 0.999}[op%12]
		g, w = got.Bool(p), want.Float64() < p
	case 3:
		g, w = got.Float64(), want.Float64()
	case 4:
		n := 1 + int(op)*37
		g, w = got.Intn(n), want.Intn(n)
	case 5:
		n := int64(1)<<40 + int64(op)
		g, w = got.Int63n(n), want.Int63n(n)
	case 6:
		g, w = got.Uint64(), want.Uint64()
	case 7:
		g, w = fmt.Sprint(got.Perm(int(op%9))), fmt.Sprint(want.Perm(int(op%9)))
	case 8:
		a, b := []int{1, 2, 3, 4, 5, 6, 7}, []int{1, 2, 3, 4, 5, 6, 7}
		got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		g, w = fmt.Sprint(a), fmt.Sprint(b)
	case 9:
		g, w = got.NormFloat64(), want.NormFloat64()
	case 10:
		g, w = got.ExpFloat64(), want.ExpFloat64()
	case 11:
		g, w = got.Int63(), want.Int63()
	}
	if g != w {
		t.Fatalf("op %d: got %v, math/rand %v", op%12, g, w)
	}
}

// TestRNGMatchesMathRand: the package's copy of math/rand's generator,
// seeded by the division-free step, yields math/rand's streams. Each
// seed draws one interleaved sequence of every method a caller uses,
// Bool at three probabilities among them, from both generators.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, int32max, 2 * int32max, 1 << 62, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(2005))
	for i := 0; i < 5; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	for _, seed := range seeds {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			rngOp(t, byte(i), got, want)
		}
		if got.Seed() != seed {
			t.Fatalf("Seed() = %d, want %d", got.Seed(), seed)
		}
	}
}

// schrage is math/rand's seeding step, x·48271 mod (2³¹−1) by Schrage's
// method, the reference for seedStep.
func schrage(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi, lo := x/q, x%q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedStepMatchesSchrage compares the division-free seeding step
// with Schrage's over the first and last 2²⁰ values of its domain,
// [1, 2³¹−2], and at 0.
func TestSeedStepMatchesSchrage(t *testing.T) {
	check := func(x int32) {
		if g, w := seedStep(x), schrage(x); g != w {
			t.Fatalf("seedStep(%d) = %d, Schrage %d", x, g, w)
		}
	}
	check(0)
	for x := int32(1); x <= 1<<20; x++ {
		check(x)
	}
	for x := int32(int32max - 1<<20); x < int32max; x++ {
		check(x)
	}
}

// TestForkSeedIsFNV: ForkSeed is the 64-bit FNV-1a hash of the seed's
// little-endian bytes and the label, the hash Fork has always used.
func TestForkSeedIsFNV(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64} {
		for _, label := range []string{"", "src0", "trans.axi", "point/mesh/uniform/0.01"} {
			h := fnv.New64a()
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(seed))
			h.Write(b[:])
			h.Write([]byte(label))
			if got, want := ForkSeed(seed, label), int64(h.Sum64()); got != want {
				t.Fatalf("ForkSeed(%d, %q) = %d, FNV-1a %d", seed, label, got, want)
			}
			if NewRNG(seed).Fork(label).Seed() != ForkSeed(seed, label) {
				t.Fatalf("Fork(%q) of seed %d does not take ForkSeed's seed", label, seed)
			}
		}
	}
}

// FuzzRNGMatchesMathRand draws the sequence ops spells from the RNG and
// from math/rand's generator seeded alike.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(-1), []byte{2, 2, 9, 10, 7, 0})
	f.Add(int64(math.MinInt64), []byte{11, 4, 5, 6})
	f.Add(int64(int32max), []byte{3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for _, op := range ops {
			rngOp(t, op, got, want)
		}
	})
}

// untilByBool is Until's reference: up to n Bool(p) draws, counting the
// false ones before the first true one.
func untilByBool(r *RNG, p float64, n int64) int64 {
	for k := int64(0); k < n; k++ {
		if r.Bool(p) {
			return k
		}
	}
	return n
}

// checkUntil calls Until on got and the Bool loop on want, with the
// same arguments, and requires the same count and, after it, the same
// next Int63 from both generators.
func checkUntil(t *testing.T, got, want *RNG, p float64, n int64) {
	t.Helper()
	if g, w := got.Until(p, n), untilByBool(want, p, n); g != w {
		t.Fatalf("Until(%v, %d) = %d, Bool loop %d", p, n, g, w)
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("after Until(%v, %d): next Int63 %d, Bool loop's %d", p, n, g, w)
	}
}

// TestUntilMatchesBool: a batched run of Bool draws counts what the
// per-draw loop counts and leaves the generator where it leaves it, at
// rates from never to always, for runs of 0 to 400 draws.
func TestUntilMatchesBool(t *testing.T) {
	rates := []float64{0, 0.002, 0.01, 0.3, 0.999, 1}
	for _, seed := range []int64{0, 1, -1, 42, 2005, math.MaxInt64} {
		got, want := NewRNG(seed), NewRNG(seed)
		for n := int64(0); n <= 400; n++ {
			for _, p := range rates {
				checkUntil(t, got, want, p, n)
			}
		}
	}
}

// TestBoolBoundAndRedraw pins Until's two integer thresholds against
// the float test Bool makes, float64(x)/2⁶³: boolBound(p) is the first
// x that comparison puts at or above p, and redraw the first it scales
// to 1.
func TestBoolBoundAndRedraw(t *testing.T) {
	scaled := func(x uint64) float64 { return float64(int64(x)) / (1 << 63) }
	if f := scaled(redraw - 1); f == 1 {
		t.Fatalf("2⁶³−513 scales to 1")
	}
	if f := scaled(redraw); f != 1 {
		t.Fatalf("2⁶³−512 scales to %v, not 1", f)
	}
	rates := []float64{
		math.SmallestNonzeroFloat64, 1e-300, 0x1p-64, 0x1p-63, 1e-18,
		0x1p-11, 0x1p-10, math.Nextafter(0x1p-10, 1), 0x1.8p-10,
		0.002, 0.01, 0.025, 0.1, 0.3, 1.0 / 3, 0.5, 0.7, 0.999,
		math.Nextafter(1, 0),
	}
	pick := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		rates = append(rates, pick.Float64(), math.Ldexp(pick.Float64(), -pick.Intn(70)))
	}
	for _, p := range rates {
		if p <= 0 || p >= 1 {
			continue
		}
		b := boolBound(p)
		if b == 0 || b >= redraw {
			t.Fatalf("boolBound(%v) = %d outside (0, 2⁶³−512)", p, b)
		}
		if scaled(b-1) >= p || scaled(b) < p {
			t.Fatalf("boolBound(%v) = %d: %v at bound−1, %v at bound", p, b, scaled(b-1), scaled(b))
		}
	}
	if b := boolBound(math.NaN()); b != 0 {
		t.Fatalf("boolBound(NaN) = %d, want 0", b)
	}
}

// setNext arranges r's generator state so that its next Int63 is x.
func setNext(r *RNG, x uint64) {
	s := &r.src
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.vec[feed] = int64(x) - s.vec[tap]
}

// TestUntilAtThresholds forces a draw onto each threshold, where no
// random stream lands in practice: the last true and first false value
// of the rate's bound, and the last kept and first discarded value below
// 2⁶³. Until and the Bool loop must agree on the count and on the
// stream after it.
func TestUntilAtThresholds(t *testing.T) {
	for _, p := range []float64{0.002, 0.01, 0.3, 0.5, 0.999, math.Nextafter(1, 0)} {
		b := boolBound(p)
		for _, x := range []uint64{b - 1, b, redraw - 1, redraw, 1<<63 - 1} {
			for _, n := range []int64{1, 2, 50} {
				got, want := NewRNG(7), NewRNG(7)
				setNext(got, x)
				setNext(want, x)
				checkUntil(t, got, want, p, n)
			}
		}
	}
}

// FuzzUntilMatchesBool runs Until and the Bool loop from generators
// seeded alike over a fuzzed rate, any float64 included, and a fuzzed
// sequence of run lengths.
func FuzzUntilMatchesBool(f *testing.F) {
	f.Add(int64(1), 0.01, []byte{0, 1, 2, 100, 255})
	f.Add(int64(-1), 0.999, []byte{3, 3, 3})
	f.Add(int64(math.MinInt64), 0.002, []byte{255, 255, 255, 255})
	f.Add(int64(5), 1.0, []byte{1, 0})
	f.Add(int64(5), math.NaN(), []byte{4, 9})
	f.Fuzz(func(t *testing.T, seed int64, p float64, ns []byte) {
		got, want := NewRNG(seed), NewRNG(seed)
		for _, n := range ns {
			checkUntil(t, got, want, p, int64(n)*2)
		}
	})
}
