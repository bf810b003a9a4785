package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SpanRecorder collects lifecycle events — everything except the
// per-link congestion signals (KindFlit, KindStall, KindBufSample),
// which would swamp a trace with millions of identical rows — in
// arrival order. The recorded stream is the input to both trace sinks:
// WriteJSONL for log-style consumption and WriteChromeTrace for
// Perfetto/chrome://tracing.
//
// The zero value is ready to use. Like every Probe, a SpanRecorder
// belongs to one simulation kernel and is not safe for concurrent use.
type SpanRecorder struct {
	events []Event
}

// Event implements Probe.
func (r *SpanRecorder) Event(ev Event) {
	switch ev.Kind {
	case KindFlit, KindStall, KindBufSample:
		return
	}
	r.events = append(r.events, ev)
}

// SamplesBuffers implements BufferSampler: the recorder drops buffer
// samples, so the fabric need not emit them.
func (r *SpanRecorder) SamplesBuffers() bool { return false }

// Events returns the recorded events in arrival order. The slice is the
// recorder's own backing store; callers must not mutate it.
func (r *SpanRecorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *SpanRecorder) Len() int { return len(r.events) }

// jsonlEvent is the wire shape of one JSONL trace line. Numeric fields
// are omitted when zero so flit-level noise fields never appear on
// transaction-level lines; Kind and Cycle always appear.
type jsonlEvent struct {
	Kind   string `json:"kind"`
	Cycle  int64  `json:"cycle"`
	PktID  uint64 `json:"pkt,omitempty"`
	Src    uint16 `json:"src,omitempty"`
	Dst    uint16 `json:"dst,omitempty"`
	Tag    uint16 `json:"tag,omitempty"`
	Router int    `json:"router,omitempty"`
	Port   int    `json:"port,omitempty"`
	VC     uint8  `json:"vc,omitempty"`
	Val    int    `json:"val,omitempty"`
}

// WriteJSONL writes the recorded events as one JSON object per line.
func (r *SpanRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.events {
		line := jsonlEvent{
			Kind: ev.Kind.String(), Cycle: ev.Cycle,
			PktID: ev.PktID, Src: uint16(ev.Src), Dst: uint16(ev.Dst),
			Tag: uint16(ev.Tag), Router: ev.Router, Port: ev.Port, VC: ev.VC, Val: ev.Val,
		}
		// VCAlloc on router 0 port 0 must still carry its coordinates;
		// omitempty cannot distinguish "port 0" from "no port", so the
		// encoder is only used for fields that are identity-bearing when
		// non-zero. Router/Port are re-added for switch events below.
		if err := enc.Encode(encodeSwitchFields(ev, line)); err != nil {
			return err
		}
	}
	return nil
}

// switchEvent is jsonlEvent with router/port always present, for events
// whose identity is a switch output (port 0 is a real port).
type switchEvent struct {
	Kind   string `json:"kind"`
	Cycle  int64  `json:"cycle"`
	PktID  uint64 `json:"pkt,omitempty"`
	Router int    `json:"router"`
	Port   int    `json:"port"`
	VC     uint8  `json:"vc"`
}

// encodeSwitchFields picks the wire shape for one event.
func encodeSwitchFields(ev Event, line jsonlEvent) any {
	if ev.Kind == KindVCAlloc {
		return switchEvent{Kind: line.Kind, Cycle: line.Cycle, PktID: line.PktID,
			Router: ev.Router, Port: ev.Port, VC: ev.VC}
	}
	return line
}

// CountingProbe counts events by kind; tests use it to assert a hook
// fired without recording anything.
type CountingProbe struct {
	Counts map[Kind]uint64
}

// Event implements Probe.
func (c *CountingProbe) Event(ev Event) {
	if c.Counts == nil {
		c.Counts = make(map[Kind]uint64)
	}
	c.Counts[ev.Kind]++
}

// Total returns the number of events seen across all kinds.
func (c *CountingProbe) Total() uint64 {
	var n uint64
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// String summarizes the counts (stable order by kind value).
func (c *CountingProbe) String() string {
	s := ""
	for k := KindQueued; k <= KindSlaveResp; k++ {
		if n := c.Counts[k]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", k, n)
		}
	}
	if s == "" {
		return "empty"
	}
	return s
}
