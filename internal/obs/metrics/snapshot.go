package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Snapshot is one line of the JSONL self-profiling stream: where the
// simulation is, how fast it is going right now (an interval rate, not
// the session average), and a flat dump of every registry metric.
type Snapshot struct {
	TMS   float64 `json:"t_ms"` // wall ms since the session's profile started
	Phase string  `json:"phase,omitempty"`

	Cycles       int64   `json:"cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"` // over the interval since the previous line

	HeapAllocBytes float64 `json:"heap_alloc_bytes,omitempty"`

	PointsDone  int `json:"points_done,omitempty"`
	PointsTotal int `json:"points_total,omitempty"`

	// Metrics is the full registry dump keyed by qualified sample name,
	// written with sorted keys so lines diff cleanly. A sample whose
	// value is not finite is left out.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// wireSnapshot is a Snapshot as written: the registry dump arrives
// already rendered (Registry.appendJSON), and this Metrics field hides
// the embedded map. The bytes are those of json.Marshal on the Snapshot
// with its map filled.
type wireSnapshot struct {
	Snapshot
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// Frozen is a session's last snapshot line, rendered once, with the
// point counts a status document reports. It shares nothing with the
// rig it came from, so a finished session keeps it and drops the rig
// (nocserver keeps one per cached run).
type Frozen struct {
	PointsDone, PointsTotal int
	// Line is one snapshot line, newline included: the session's state
	// when it was frozen. It is the first line a snapshotter opened at
	// that moment writes: t_ms is the session's wall time, and the rate
	// is its average.
	Line []byte
}

// Freeze renders the rig's current state (the zero Frozen on a nil
// rig).
func (r *Rig) Freeze() Frozen {
	if r == nil {
		return Frozen{}
	}
	s := opened(r.Registry, r.Profile, r.Progress)
	snap, line := s.render(time.Now())
	return Frozen{PointsDone: snap.PointsDone, PointsTotal: snap.PointsTotal, Line: line}
}

// defaultSnapEvery paces snapshots when the caller passes no interval.
const defaultSnapEvery = 250 * time.Millisecond

// Snapshotter appends periodic Snapshot lines to a writer — the
// headless counterpart of the HTTP server. It is paced by the
// simulation's own publishing ticks: SimProfile.Advance calls
// MaybeSnap, which writes a line only when the interval has elapsed.
// Close writes one final line so the stream always ends with the
// finished state. A nil *Snapshotter is a no-op.
//
// It measures from its profile's start, not its own: t_ms is the
// session's wall time, and the first line's cycle rate is the session's
// average, so a stream opened in the middle of a session (nocserver's
// /progress on a running run) starts with the line Rig.Freeze renders.
// Each later line's rate covers the interval since the line before.
type Snapshotter struct {
	reg  *Registry
	prof *SimProfile
	prog *Progress

	mu         sync.Mutex
	w          *bufio.Writer
	dump       []byte // the last line's rendered registry dump, reused
	every      time.Duration
	start      time.Time
	last       time.Time
	lastCycles int64
	lines      int
}

// NewSnapshotter streams snapshots of the given (possibly nil)
// components to w, one JSON line per interval (every <= 0 picks
// 250ms).
func NewSnapshotter(w io.Writer, every time.Duration, reg *Registry, prof *SimProfile, prog *Progress) *Snapshotter {
	if every <= 0 {
		every = defaultSnapEvery
	}
	s := opened(reg, prof, prog)
	s.w, s.every = bufio.NewWriter(w), every
	return &s
}

// opened returns a snapshotter over the given components as it stands
// when opened, with no writer yet: its clock and its first interval
// start at the profile's start (now, without a profile).
func opened(reg *Registry, prof *SimProfile, prog *Progress) Snapshotter {
	start := time.Now()
	if prof != nil {
		start = prof.start
	}
	return Snapshotter{reg: reg, prof: prof, prog: prog, start: start, last: start}
}

// MaybeSnap writes a line when the interval since the previous line
// has elapsed; otherwise it returns immediately.
func (s *Snapshotter) MaybeSnap() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if time.Since(s.last) >= s.every {
		s.snapLocked()
	}
	s.mu.Unlock()
}

// Snap writes a line unconditionally.
func (s *Snapshotter) Snap() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snapLocked()
	s.mu.Unlock()
}

func (s *Snapshotter) snapLocked() {
	if _, line := s.render(time.Now()); line != nil {
		s.w.Write(line)
		s.lines++
	}
}

// render builds the snapshot line taken at now, newline included, and
// starts the next interval there: every line, streamed or frozen, is
// rendered here. Call it with s.mu held, or on a snapshotter no one
// else holds.
func (s *Snapshotter) render(now time.Time) (Snapshot, []byte) {
	snap := Snapshot{
		TMS:    float64(now.Sub(s.start).Microseconds()) / 1e3,
		Phase:  s.prof.Phase().String(),
		Cycles: s.prof.Cycles(),
	}
	snap.CyclesPerSec = rate(float64(snap.Cycles-s.lastCycles), now.Sub(s.last))
	if s.prof != nil {
		snap.HeapAllocBytes = s.prof.heapAlloc.Value()
	}
	ps := s.prog.Snapshot()
	snap.PointsDone, snap.PointsTotal = ps.PointsDone, ps.PointsTotal
	s.dump = s.reg.appendJSON(s.dump[:0])
	s.last, s.lastCycles = now, snap.Cycles
	line, err := json.Marshal(wireSnapshot{snap, s.dump})
	if err != nil {
		return snap, nil
	}
	return snap, append(line, '\n')
}

// Lines reports how many snapshot lines have been written.
func (s *Snapshotter) Lines() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}

// Flush pushes buffered lines to the underlying writer without taking
// a snapshot — the streaming servers call it after each Snap so a line
// reaches the HTTP client as soon as it is written.
func (s *Snapshotter) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close writes a final snapshot and flushes. It does not close the
// underlying writer.
func (s *Snapshotter) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapLocked()
	return s.w.Flush()
}

// ParseSnapshots reads a JSONL snapshot stream back (blank lines
// skipped) — the analysis-side helper for BENCH_metrics artifacts and
// the client side of the nocserver progress stream. A malformed line
// (typically a tail truncated mid-write: the stream's producer was
// killed, or a live file is being read while the writer holds a
// partial line) returns the cleanly parsed prefix together with the
// error, so callers can use what arrived intact.
func ParseSnapshots(r io.Reader) ([]Snapshot, error) {
	var out []Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			return out, fmt.Errorf("snapshot line %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}
