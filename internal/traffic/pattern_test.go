package traffic

import (
	"testing"

	"gonoc/internal/sim"
)

func TestTransposeDest(t *testing.T) {
	// 4x4: node 6 is (x=2, y=1); its transpose (1, 2) is index 9.
	if d, ok := transposeDest(6, 4, 4, 16); !ok || d != 9 {
		t.Fatalf("transpose(6) = %d,%v; want 9,true", d, ok)
	}
	// Transposing twice returns home.
	for i := 0; i < 16; i++ {
		d, ok := transposeDest(i, 4, 4, 16)
		if !ok {
			continue // diagonal
		}
		back, ok2 := transposeDest(d, 4, 4, 16)
		if !ok2 || back != i {
			t.Fatalf("transpose not involutive at %d: %d -> %d", i, d, back)
		}
	}
	// Diagonal nodes map to themselves and must be rejected.
	for _, i := range []int{0, 5, 10, 15} {
		if _, ok := transposeDest(i, 4, 4, 16); ok {
			t.Fatalf("diagonal %d not rejected", i)
		}
	}
}

func TestBitCompDest(t *testing.T) {
	if d, ok := bitCompDest(5, 16); !ok || d != 10 {
		t.Fatalf("bitcomp(5) = %d,%v; want 10,true", d, ok)
	}
	// Population 12: largest power of two is 8; nodes >= 8 fall back.
	if d, ok := bitCompDest(3, 12); !ok || d != 4 {
		t.Fatalf("bitcomp(3, n=12) = %d,%v; want 4,true", d, ok)
	}
	if _, ok := bitCompDest(9, 12); ok {
		t.Fatal("node outside power-of-two population not rejected")
	}
}

func TestMeshNeighbors(t *testing.T) {
	nb := gridNeighbors(0, 4, 4, 16, false)
	if len(nb) != 2 {
		t.Fatalf("corner neighbors: %v", nb)
	}
	seen := map[int]bool{}
	for _, d := range nb {
		seen[d] = true
	}
	if !seen[1] || !seen[4] {
		t.Fatalf("corner neighbors: %v, want {1,4}", nb)
	}
	if nb := gridNeighbors(5, 4, 4, 16, false); len(nb) != 4 {
		t.Fatalf("interior neighbors: %v", nb)
	}
}

func TestTorusNeighborsWrap(t *testing.T) {
	// Corner of a 4x4 torus has 4 neighbours: wrap folds the edges.
	nb := gridNeighbors(0, 4, 4, 16, true)
	if len(nb) != 4 {
		t.Fatalf("torus corner neighbors: %v", nb)
	}
	seen := map[int]bool{}
	for _, d := range nb {
		seen[d] = true
	}
	for _, want := range []int{1, 3, 4, 12} {
		if !seen[want] {
			t.Fatalf("torus corner neighbors %v missing %d", nb, want)
		}
	}
	// 2-wide dimension: the wrap link and the mesh link reach the same
	// node; it must appear once, not twice.
	if nb := gridNeighbors(0, 2, 2, 4, true); len(nb) != 2 {
		t.Fatalf("2x2 torus neighbors: %v", nb)
	}
	// 1-wide dimension: no self-links.
	for _, d := range gridNeighbors(2, 1, 4, 4, true) {
		if d == 2 {
			t.Fatalf("self link in 1-wide torus: %v", gridNeighbors(2, 1, 4, 4, true))
		}
	}
}

func TestUniformExcludesSelf(t *testing.T) {
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		if d := uniformOther(rng, 8, 3); d == 3 || d < 0 || d >= 8 {
			t.Fatalf("uniformOther returned %d", d)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	cfg := (&Config{Nodes: 16, Pattern: Hotspot, HotFrac: 0.5}).withDefaults()
	ch := newChooser(&cfg, 5, sim.NewRNG(11))
	hot := 0
	const draws = 4000
	for i := 0; i < draws; i++ {
		if ch.next() == cfg.HotNode {
			hot++
		}
	}
	// Expected ~0.5 + 0.5/15 ~ 0.53; accept a generous band.
	frac := float64(hot) / draws
	if frac < 0.45 || frac > 0.62 {
		t.Fatalf("hotspot fraction = %.3f, want ~0.53", frac)
	}
}

func TestBurstyHoldsDestination(t *testing.T) {
	cfg := (&Config{Nodes: 16, Pattern: Bursty, BurstLen: 8}).withDefaults()
	ch := newChooser(&cfg, 0, sim.NewRNG(3))
	const draws = 4000
	prev, changes := -1, 0
	for i := 0; i < draws; i++ {
		d := ch.next()
		if d == 0 {
			t.Fatal("bursty chose self")
		}
		if d != prev {
			changes++
			prev = d
		}
	}
	// Mean burst length 8 means roughly draws/8 destination changes;
	// uniform would change nearly every draw.
	if changes > draws/4 {
		t.Fatalf("%d destination changes in %d draws: bursts not held", changes, draws)
	}
}

func TestParsers(t *testing.T) {
	for name, want := range map[string]Pattern{
		"uniform": UniformRandom, "hotspot": Hotspot, "transpose": Transpose,
		"bitcomp": BitComplement, "neighbor": NearestNeighbor, "bursty": Bursty,
	} {
		p, err := ParsePattern(name)
		if err != nil || p != want {
			t.Fatalf("ParsePattern(%q) = %v, %v", name, p, err)
		}
		if p.String() != name {
			t.Fatalf("round trip %q -> %q", name, p.String())
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Fatal("bad pattern accepted")
	}
}
