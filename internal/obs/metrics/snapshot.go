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
// simulation is, how fast it is going right now (interval rates, not
// session averages), and a flat dump of every registry metric.
type Snapshot struct {
	TMS   float64 `json:"t_ms"` // wall ms since the session's profile started
	Phase string  `json:"phase,omitempty"`

	Cycles       int64   `json:"cycles"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"` // over the interval since the previous line
	CyclesPerSec float64 `json:"cycles_per_sec"`
	HeapDepth    int     `json:"event_heap_depth,omitempty"`

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

// take reads a snapshot's scalars from the (possibly nil) profile and
// tracker; the caller fills the time and the rates.
func take(prof *SimProfile, prog *Progress) Snapshot {
	snap := Snapshot{
		Phase:     prof.Phase().String(),
		Cycles:    prof.Cycles(),
		Events:    prof.Events(),
		HeapDepth: prof.HeapDepth(),
	}
	if prof != nil {
		snap.HeapAllocBytes = prof.heapAlloc.Value()
	}
	ps := prog.Snapshot()
	snap.PointsDone, snap.PointsTotal = ps.PointsDone, ps.PointsTotal
	return snap
}

// Frozen is a session's last snapshot line, rendered once, with the
// point counts a status document reports. It shares nothing with the
// rig it came from, so a finished session keeps it and drops the rig
// (nocserver keeps one per cached run).
type Frozen struct {
	PointsDone, PointsTotal int
	// Line is one snapshot line, newline included: the session's state
	// when it was frozen. It reads as the first line of a snapshotter:
	// t_ms is the session's wall time, and the rates are its averages.
	Line []byte
}

// Freeze renders the rig's current state (the zero Frozen on a nil
// rig).
func (r *Rig) Freeze() Frozen {
	if r == nil {
		return Frozen{}
	}
	snap := take(r.Profile, r.Progress)
	wall := r.Profile.Elapsed()
	snap.TMS = float64(wall.Microseconds()) / 1e3
	snap.EventsPerSec = rate(float64(snap.Events), wall)
	snap.CyclesPerSec = rate(float64(snap.Cycles), wall)
	f := Frozen{PointsDone: snap.PointsDone, PointsTotal: snap.PointsTotal}
	if line, err := json.Marshal(wireSnapshot{snap, r.Registry.appendJSON(nil)}); err == nil {
		f.Line = append(line, '\n')
	}
	return f
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
// session's wall time, and the first line's rates are the session's
// averages, so a stream opened in the middle of a session (nocserver's
// /progress on a running run) starts with the line Rig.Freeze renders.
// Each later line's rates cover the interval since the line before.
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
	lastEvents int64
	lines      int
}

// NewSnapshotter streams snapshots of the given (possibly nil)
// components to w, one JSON line per interval (every <= 0 picks
// 250ms).
func NewSnapshotter(w io.Writer, every time.Duration, reg *Registry, prof *SimProfile, prog *Progress) *Snapshotter {
	if every <= 0 {
		every = defaultSnapEvery
	}
	start := time.Now()
	if prof != nil {
		start = prof.start
	}
	return &Snapshotter{
		reg: reg, prof: prof, prog: prog,
		w: bufio.NewWriter(w), every: every,
		start: start, last: start,
	}
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
	now := time.Now()
	snap := take(s.prof, s.prog)
	snap.TMS = float64(now.Sub(s.start).Microseconds()) / 1e3
	if dt := now.Sub(s.last); dt > 0 {
		snap.EventsPerSec = rate(float64(snap.Events-s.lastEvents), dt)
		snap.CyclesPerSec = rate(float64(snap.Cycles-s.lastCycles), dt)
	}
	s.dump = s.reg.appendJSON(s.dump[:0])
	line, err := json.Marshal(wireSnapshot{snap, s.dump})
	if err == nil {
		s.w.Write(line)
		s.w.WriteByte('\n')
		s.lines++
	}
	s.last = now
	s.lastCycles, s.lastEvents = snap.Cycles, snap.Events
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
