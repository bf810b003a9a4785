package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gonoc/internal/transport"
)

// goldenRuns are the seed-pinned configurations whose full Result JSON
// is committed under testdata/. They sweep every topology builder plus
// the switching-mode and loop-mode variants, so a transport hot-path
// change that perturbs any observable number — latency percentiles,
// flit counts, per-flow histograms — fails here byte for byte, not
// statistically. Regenerate (only when an intentional model change
// lands) with `go test -run TopologyGolden -update ./internal/traffic`.
var goldenRuns = []struct {
	name string
	cfg  Config
}{
	{"crossbar", Config{Seed: 11, Nodes: 8, Topology: Crossbar,
		Pattern: UniformRandom, Rate: 0.08, PayloadBytes: 32,
		Warmup: 200, Measure: 800, Drain: 4000}},
	{"mesh", Config{Seed: 12, Nodes: 9, Topology: Mesh, MeshW: 3, MeshH: 3,
		Pattern: Transpose, Rate: 0.06, PayloadBytes: 32,
		Warmup: 200, Measure: 800, Drain: 4000}},
	{"torus", Config{Seed: 13, Nodes: 16, Topology: Torus, MeshW: 4, MeshH: 4,
		Pattern: UniformRandom, Rate: 0.05, PayloadBytes: 24,
		Warmup: 200, Measure: 800, Drain: 4000}},
	{"ring", Config{Seed: 14, Nodes: 8, Topology: Ring,
		Pattern: NearestNeighbor, Rate: 0.07, PayloadBytes: 16,
		Warmup: 200, Measure: 800, Drain: 4000}},
	{"tree", Config{Seed: 15, Nodes: 8, Topology: Tree, TreeFanout: 4,
		Pattern: Hotspot, HotFrac: 0.4, Rate: 0.05, PayloadBytes: 32,
		Warmup: 200, Measure: 800, Drain: 4000}},
	// Variants that reach code the uniform wormhole runs do not: whole-
	// packet buffering (store-and-forward readiness scan) and the
	// closed-loop window regulator.
	{"mesh-saf", func() Config {
		c := Config{Seed: 16, Nodes: 9, Topology: Mesh, MeshW: 3, MeshH: 3,
			Pattern: UniformRandom, Rate: 0.05, PayloadBytes: 32,
			Warmup: 200, Measure: 800, Drain: 4000}
		c.Net.Mode = 1 // transport.StoreAndForward
		c.Net.BufDepth = 8
		return c
	}()},
	{"ring-closed", Config{Seed: 17, Nodes: 8, Topology: Ring,
		Pattern: UniformRandom, PayloadBytes: 16, ClosedLoop: true, Window: 2,
		Warmup: 200, Measure: 800, Drain: 4000}},
}

// TestTopologyGoldenResults pins the full measured Result of a seeded
// run on every topology against committed goldens. This is the batched-
// transport byte-identity contract: the struct-of-arrays hot path must
// reproduce the seed-pinned outputs exactly on every fabric shape.
func TestTopologyGoldenResults(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			res := Run(g.cfg)
			if res.FabricFlits == 0 {
				t.Fatalf("%s: run moved no flits", g.name)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", fmt.Sprintf("topology_%s.golden.json", g.name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s result diverged from seed-pinned golden; if the model change is intentional, rerun with -update and review the diff\n--- got ---\n%s",
					g.name, buf.Bytes())
			}
		})
	}
}

// TestFidelityCycleGoldenInert proves the fidelity knob's off position:
// an explicit fidelity=cycle run reproduces every committed topology
// golden byte for byte.
func TestFidelityCycleGoldenInert(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name+"/serial", func(t *testing.T) {
			cfg := g.cfg
			cfg.Net.Fidelity = transport.FidelityCycle
			res := Run(cfg)
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("topology_%s.golden.json", g.name)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s: fidelity=cycle diverged from the committed golden; the knob is not inert", g.name)
			}
		})
	}
}
