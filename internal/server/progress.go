package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"gonoc/internal/obs/metrics"
)

// defaultProgressInterval paces the live stream when the client does
// not ask for a cadence (?interval=).
const defaultProgressInterval = 250 * time.Millisecond

// handleProgress streams the run's self-profiling snapshots — phase,
// cycles with an interval rate, point counters with an ETA, and
// the full per-run metrics dump (per-router flit/stall counters: the
// live congestion view) — until the run reaches a terminal state or
// the client goes away. The stream is JSONL (application/x-ndjson,
// metrics.ParseSnapshots reads it back) unless the client asks for
// Server-Sent Events with "Accept: text/event-stream", in which case
// each line is framed as one "data:" event. Each line is flushed as it
// is written, so a slow consumer sees live lines, and a consumer that
// disconnects mid-line still has a parseable prefix.
func (s *Server) handleProgress(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.apiError(w, http.StatusNotFound, "no such run", nil)
		return
	}
	interval := defaultProgressInterval
	if q := req.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			s.apiError(w, http.StatusBadRequest, fmt.Sprintf("bad interval %q (want a positive Go duration, e.g. 250ms)", q), nil)
			return
		}
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		interval = d
	}

	var out io.Writer = w
	if sseRequested(req) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		out = &sseWriter{dst: w}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	rig, final := r.live()
	if rig == nil {
		// A finished run's stream is its one frozen terminal line.
		out.Write(final.Line)
		return
	}
	// A stream opened before the run finished keeps its rig to the end.
	snap := metrics.NewSnapshotter(out, interval, rig.Registry, rig.Profile, rig.Progress)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		// The terminal check comes before the line: a run writes its
		// rig's final values before its terminal transition, so the line
		// taken after a terminal read carries them, and the stream ends
		// on it.
		done := r.terminal()
		snap.Snap()
		snap.Flush()
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-r.doneCh:
			// Loop once more for the terminal line.
		case <-ticker.C:
		}
	}
}

func sseRequested(req *http.Request) bool {
	return bytes.Contains([]byte(req.Header.Get("Accept")), []byte("text/event-stream"))
}

// sseWriter reframes a line-oriented stream as Server-Sent Events:
// every complete input line becomes one "data: <line>\n\n" event. The
// Snapshotter writes through a bufio.Writer whose flushes may split a
// long line across Write calls, so the writer buffers the partial tail
// until its newline arrives — an event is never emitted truncated.
type sseWriter struct {
	dst io.Writer
	buf []byte
}

func (s *sseWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	for {
		i := bytes.IndexByte(s.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := s.buf[:i]
		if len(line) > 0 {
			if _, err := fmt.Fprintf(s.dst, "data: %s\n\n", line); err != nil {
				return len(p), err
			}
		}
		s.buf = append(s.buf[:0], s.buf[i+1:]...)
	}
}
