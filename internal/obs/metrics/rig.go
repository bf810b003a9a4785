package metrics

import (
	"io"
	"time"

	"gonoc/internal/obs"
)

// Rig is one session's live-metrics stack: a registry plus the
// simulator self-profile, the point-progress tracker and the per-router
// fabric collector registered on it. The CLIs build one per process,
// the server one per run. A nil *Rig means metrics are off; Probe is
// nil-safe, and callers that reach into the fields check for nil first.
type Rig struct {
	Registry  *Registry
	Profile   *SimProfile
	Progress  *Progress
	Collector *FabricCollector
}

// NewRig builds a rig on a fresh registry.
func NewRig() *Rig {
	reg := NewRegistry()
	return &Rig{
		Registry:  reg,
		Profile:   NewSimProfile(reg),
		Progress:  NewProgress(reg),
		Collector: NewFabricCollector(reg),
	}
}

// Probe returns the fabric collector as a probe, or a true nil
// interface on a nil rig (a nil *FabricCollector in an obs.Probe would
// defeat obs.Multi's nil filter).
func (r *Rig) Probe() obs.Probe {
	if r == nil {
		return nil
	}
	return r.Collector
}

// SnapshotTo appends the rig's JSONL snapshots to w at the given
// cadence, paced by the profile's publishing ticks. Close the returned
// snapshotter to write the final line.
func (r *Rig) SnapshotTo(w io.Writer, every time.Duration) *Snapshotter {
	s := NewSnapshotter(w, every, r.Registry, r.Profile, r.Progress)
	r.Profile.SetSnapshotter(s)
	return s
}
