package metrics

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"gonoc/internal/obs"
)

// Rig is one session's live-metrics stack: a registry plus the
// simulator self-profile, the point-progress tracker and the per-router
// fabric collector registered on it. The CLIs build one per process,
// the server one per run. A nil or zero Rig means metrics are off, and
// a nil field turns that part off: every field is a nil-safe handle.
// The traffic runners take a Rig by value (traffic.Config.Metrics).
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
// interface on a rig with no collector (a nil *FabricCollector in an
// obs.Probe would defeat obs.Multi's nil filter).
func (r *Rig) Probe() obs.Probe {
	if r == nil || r.Collector == nil {
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

// Live is the live-metrics session a command opens for its
// -metrics-addr and -metrics-out flags: a rig, the JSONL snapshot file
// it streams to and the HTTP server that serves it. Both CLIs start one.
type Live struct {
	Rig *Rig // nil when neither was asked for

	snap    *Snapshotter
	closers []func() error
}

// StartLive opens the session. With out set it creates that file and
// appends a snapshot to it every interval; with addr set it serves
// /metrics and /progress there and announces the bound address on w.
// With neither, Rig is nil and Close does nothing.
func StartLive(addr, out string, every time.Duration, w io.Writer) (*Live, error) {
	l := &Live{}
	if addr == "" && out == "" {
		return l, nil
	}
	l.Rig = NewRig()
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return nil, err
		}
		l.snap = l.Rig.SnapshotTo(f, every)
		l.closers = append(l.closers, l.snap.Close, f.Close)
	}
	if addr != "" {
		srv := NewServer(l.Rig.Registry, l.Rig.Profile, l.Rig.Progress)
		bound, err := srv.Start(addr)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.closers = append(l.closers, srv.Close)
		fmt.Fprintf(w, "serving live metrics on http://%s/metrics (progress: http://%s/progress)\n", bound, bound)
	}
	return l, nil
}

// Close writes the final snapshot, closes the file and stops the
// server, and returns the errors it met.
func (l *Live) Close() error {
	var errs []error
	for _, c := range l.closers {
		errs = append(errs, c())
	}
	l.closers = nil
	return errors.Join(errs...)
}

// Snapshots counts the snapshot lines written to the file: after
// Close, all of them.
func (l *Live) Snapshots() int { return l.snap.Lines() }
