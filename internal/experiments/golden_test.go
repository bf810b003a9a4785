package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gonoc/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the suite golden")

// TestSuiteGolden pins E1–E14 byte for byte: the golden holds exactly
// what `nocbench -only E1,...,E14 -json` prints at its default seed and
// request count. E15 and E16 are left out because they carry wall-clock
// numbers. Regenerate (only when an intentional model change lands) with
// `go test -run SuiteGolden ./internal/experiments -update` and review
// the diff.
func TestSuiteGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the suite takes minutes under -race; the plain run pins it")
	}
	pinned := map[string]bool{}
	for _, e := range Suite[:14] {
		pinned[e.ID] = true
	}
	var buf bytes.Buffer
	if err := stats.WriteJSON(&buf, RunSuite(1, 25, func(id string) bool { return pinned[id] })); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "suite_e1_e14.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("E1–E14 diverged from the golden; if the model change is intentional, rerun with -update and review the diff\n--- got ---\n%s", buf.Bytes())
	}
}
