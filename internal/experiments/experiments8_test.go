package experiments

import "testing"

// TestE15SelfProfile: the observer invariants must hold — metrics on
// is byte-identical to metrics off, the live counters conserve flits,
// and the snapshot stream round-trips.
func TestE15SelfProfile(t *testing.T) {
	r := E15SelfProfile(7)
	if !r.Identical {
		t.Fatal("instrumented sweep diverged from the bare sweep")
	}
	if len(r.Tables) != 3 {
		t.Fatalf("want 3 tables, got %d", len(r.Tables))
	}
	if got, want := len(r.Tables[0].Rows()), len(r.Sweep.Points); got != want {
		t.Fatalf("per-point table has %d rows, want %d", got, want)
	}
	var resultFlits uint64
	for _, p := range r.Sweep.Points {
		if p.Wall == nil || p.Wall.Events == 0 {
			t.Fatalf("point @%g missing wall stats", p.Offered)
		}
		resultFlits += p.FabricFlits
	}
	if r.LiveFlits != resultFlits {
		t.Fatalf("live flit total %d != result flit total %d", r.LiveFlits, resultFlits)
	}
	if len(r.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	last := r.Snapshots[len(r.Snapshots)-1]
	if last.Phase != "done" {
		t.Fatalf("final snapshot phase %q, want done", last.Phase)
	}
	if last.PointsDone != len(r.Sweep.Points) || last.PointsTotal != len(r.Sweep.Points) {
		t.Fatalf("final snapshot progress %d/%d, want %d/%d",
			last.PointsDone, last.PointsTotal, len(r.Sweep.Points), len(r.Sweep.Points))
	}
	for i := 1; i < len(r.Snapshots); i++ {
		if r.Snapshots[i].Cycles < r.Snapshots[i-1].Cycles {
			t.Fatalf("snapshot %d cycles went backwards", i)
		}
	}
}
