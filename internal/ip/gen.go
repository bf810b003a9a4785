// Package ip provides the IP side of every socket: one protocol-neutral
// Initiator adapter per master engine (see Socket), and a
// self-checking traffic generator (write-then-read-back scoreboard) that
// drives any Socket, whether the far side is an NoC NIU or a bus bridge.
// Experiments build both systems from one IP set — the Fig-1 vs Fig-2
// comparison.
package ip

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// Region is an address window a generator owns exclusively, so read-back
// checks are race-free by construction.
type Region struct {
	Base uint64
	Size uint64
}

// GenConfig parameterizes a traffic generator.
type GenConfig struct {
	Seed     int64
	Requests int    // write+read-back pairs to perform (default 50)
	Region   Region // private address window
}

// genMaxBeats bounds a generated burst (the socket's own limit may be
// lower).
const genMaxBeats = 8

// GenStats aggregates generator activity.
type GenStats struct {
	Issued     int
	Completed  int
	Mismatches int
	Errors     int
	Latency    *stats.Latency // write-issue to read-back-verify, cycles
}

// Gen is a traffic generator on one Socket: it writes a random burst
// into its private region, reads it back and compares, issuing back to
// back with one pair in flight at a time.
type Gen struct {
	sock Socket
	cfg  GenConfig
	rng  *sim.RNG
	wake sim.Waker

	issued, completed, mismatches, errs int
	lat                                 stats.Latency

	// The pair in flight. Its two completions are bound once here, so
	// a pair allocates no callback of its own.
	busy        bool
	start       int64
	id, beats   int
	addr        uint64
	data        []byte
	wrote, read Done
}

// NewGen creates the generator on clk.
func NewGen(clk *sim.Clock, sock Socket, cfg GenConfig) *Gen {
	if cfg.Requests == 0 {
		cfg.Requests = 50
	}
	g := &Gen{sock: sock, cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
	g.wrote, g.read = g.onWrite, g.verify
	g.wake = clk.Register(g)
	return g
}

// next draws the next pair's shape: a power-of-two burst at an aligned
// slot of the region, or, on a byte-granular socket, 32–160 bytes at
// any offset.
func (g *Gen) next() {
	r := g.cfg.Region
	if g.sock.width == 1 {
		g.beats = min(g.rng.Range(32, 160), int(r.Size))
		g.addr = r.Base
		if maxOff := r.Size - uint64(g.beats); maxOff > 0 {
			g.addr += uint64(g.rng.Intn(int(maxOff)))
		}
	} else {
		g.beats = min(1<<g.rng.Intn(4), genMaxBeats)
		if g.sock.maxBeats > 0 {
			g.beats = min(g.beats, g.sock.maxBeats)
		}
		span := uint64(g.beats) * uint64(g.sock.width)
		g.addr = r.Base + uint64(g.rng.Intn(int(max(r.Size/span, 1))))*span
	}
	// A pair completes before the next starts, so one payload buffer
	// serves them all.
	n := g.beats * int(g.sock.width)
	g.data = slices.Grow(g.data[:0], n)[:n]
	g.rng.Read(g.data)
}

// Eval implements sim.Clocked.
func (g *Gen) Eval(cycle int64) {
	if g.busy || g.issued >= g.cfg.Requests {
		return
	}
	g.next()
	g.id = g.issued
	if g.sock.ids > 0 {
		g.id = g.rng.Intn(g.sock.ids)
	}
	g.start = cycle
	g.issued++
	g.busy = true
	g.sock.Write(g.id, g.addr, g.sock.width, g.data, g.wrote)
}

// Idle implements sim.Idler: a pair is in flight (its read-back
// completion wakes the generator) or every pair is done.
func (g *Gen) Idle() bool { return g.busy || g.issued >= g.cfg.Requests }

func (g *Gen) onWrite(_ []byte, err bool) {
	if err {
		g.verify(nil, true)
		return
	}
	g.sock.Read(g.id, g.addr, g.sock.width, g.beats, g.read)
}

func (g *Gen) verify(got []byte, err bool) {
	g.completed++
	g.busy = false
	// Latency ends at the cycle of the generator's last Eval, which the
	// clock knows even while the generator sleeps.
	g.lat.Record(g.wake.LastEval() - g.start)
	g.wake.Wake()
	switch {
	case err:
		g.errs++
	case !bytes.Equal(g.data, got):
		g.mismatches++
	}
}

// Done reports whether every pair has completed.
func (g *Gen) Done() bool { return g.completed >= g.cfg.Requests }

// Stats returns the generator's counters.
func (g *Gen) Stats() GenStats {
	return GenStats{
		Issued: g.issued, Completed: g.completed,
		Mismatches: g.mismatches, Errors: g.errs, Latency: &g.lat,
	}
}

// CheckAll fails with a descriptive error if any generator saw data
// mismatches or protocol errors, or is not done. Generators are checked
// in name order, so the error names the same one on every run.
func CheckAll(gens map[string]*Gen) error {
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := gens[name]
		s := g.Stats()
		if !g.Done() {
			return fmt.Errorf("ip: generator %s incomplete: %d/%d", name, s.Completed, s.Issued)
		}
		if s.Mismatches > 0 || s.Errors > 0 {
			return fmt.Errorf("ip: generator %s: %d mismatches, %d errors", name, s.Mismatches, s.Errors)
		}
	}
	return nil
}
