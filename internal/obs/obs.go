package obs

import "gonoc/internal/noctypes"

// Kind discriminates instrumentation events.
type Kind uint8

// Event kinds, in roughly lifecycle order. Queued → Inject → VCAlloc
// (per hop) → Flit (per flit per hop) → Eject trace one packet through
// the fabric; TxnIssue/TxnComplete and SlaveRecv/SlaveResp bracket the
// same journey one layer up, at the NIU transaction level; Stall and
// BufSample are per-link congestion signals with no packet identity.
const (
	// KindQueued: an endpoint accepted a packet (TrySend) and packetized
	// it. Val is the packet's flit count.
	KindQueued Kind = iota
	// KindInject: the packet's head flit entered the fabric.
	KindInject
	// KindVCAlloc: a switch granted output Port to the packet — the VC
	// allocation moment. VC is the (possibly rewritten) channel the
	// packet leaves on.
	KindVCAlloc
	// KindFlit: one flit crossed switch output (Router, Port) on VC.
	KindFlit
	// KindStall: a held switch output moved no flit this cycle
	// (downstream backpressure or a wormhole bubble).
	KindStall
	// KindBufSample: start-of-cycle occupancy of the buffer downstream
	// of (Router, Port) on VC. Val is the occupancy in flits.
	KindBufSample
	// KindEject: the packet's tail flit completed reassembly at Dst.
	// Val is the hop count.
	KindEject
	// KindTxnIssue: a master NIU injected a transaction request
	// (Src = master node, Dst = target, Tag = transaction tag).
	KindTxnIssue
	// KindTxnComplete: a master NIU retired a transaction on its
	// response (same identity as the matching KindTxnIssue).
	KindTxnComplete
	// KindSlaveRecv: a slave NIU admitted a request for execution
	// (Src = slave node, Dst = requesting master).
	KindSlaveRecv
	// KindSlaveResp: a slave NIU queued the response (same identity as
	// the matching KindSlaveRecv).
	KindSlaveResp
)

// String renders the kind's wire name (used by the JSONL sink).
func (k Kind) String() string {
	switch k {
	case KindQueued:
		return "queued"
	case KindInject:
		return "inject"
	case KindVCAlloc:
		return "vcalloc"
	case KindFlit:
		return "flit"
	case KindStall:
		return "stall"
	case KindBufSample:
		return "bufsample"
	case KindEject:
		return "eject"
	case KindTxnIssue:
		return "txn-issue"
	case KindTxnComplete:
		return "txn-complete"
	case KindSlaveRecv:
		return "slave-recv"
	case KindSlaveResp:
		return "slave-resp"
	}
	return "unknown"
}

// Event is one instrumentation sample. Which fields are meaningful
// depends on Kind (see the Kind constants); unused fields are zero.
type Event struct {
	Kind  Kind
	Cycle int64

	// Packet identity (Queued/Inject/VCAlloc/Flit/Eject).
	PktID uint64
	// Transaction or packet endpoints. For slave events Src is the
	// slave's own node and Dst the requesting master.
	Src, Dst noctypes.NodeID
	// Transaction tag (TxnIssue/TxnComplete/SlaveRecv/SlaveResp).
	Tag noctypes.Tag

	// Switch-output coordinates (VCAlloc/Flit/Stall/BufSample): the
	// router's index in Network.Routers() and its output port — the
	// LinkID the flit leaves through.
	Router, Port int
	VC           uint8

	// Kind-dependent scalar: flit count (Queued), hop count (Eject),
	// buffer occupancy (BufSample).
	Val int
}

// Probe receives instrumentation events. See the package comment for
// the full hot-path/reentrancy contract; in one line: a nil Probe means
// instrumentation is off, and a non-nil Probe gets a value-typed Event
// per sample from a single-threaded simulation loop and must not call
// back in.
type Probe interface {
	Event(ev Event)
}

// BufferSampler is implemented by probes that can say whether they read
// KindBufSample events. Buffer samples are the one kind the fabric
// emits on every cycle, packet or not, so only a sampling probe keeps
// an empty fabric awake. LinkMonitor's heatmap reads them; SpanRecorder
// and the live-metrics FabricCollector answer false.
type BufferSampler interface {
	SamplesBuffers() bool
}

// SamplesBuffers reports whether p reads buffer samples: false for nil,
// p's own answer when it implements BufferSampler, and true otherwise,
// so a probe that does not say gets the full event stream.
func SamplesBuffers(p Probe) bool {
	if p == nil {
		return false
	}
	if s, ok := p.(BufferSampler); ok {
		return s.SamplesBuffers()
	}
	return true
}

// multi fans events out to several probes.
type multi []Probe

func (m multi) Event(ev Event) {
	for _, p := range m {
		p.Event(ev)
	}
}

// SamplesBuffers implements BufferSampler: the fan-out samples when any
// member does.
func (m multi) SamplesBuffers() bool {
	for _, p := range m {
		if SamplesBuffers(p) {
			return true
		}
	}
	return false
}

// NameRouters implements RouterNamer by forwarding to every member that
// wants names — without this, combining a SpanRecorder with a
// LinkMonitor would silently strip router names from the heatmap.
func (m multi) NameRouters(names []string) {
	for _, p := range m {
		if nm, ok := p.(RouterNamer); ok {
			nm.NameRouters(names)
		}
	}
}

// Multi combines probes into one, dropping nils. It returns nil when
// nothing remains (so the fabric's disabled-== -nil fast path still
// applies) and the probe itself when only one remains.
func Multi(ps ...Probe) Probe {
	var kept multi
	for _, p := range ps {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// RouterNamer is implemented by sinks that can label router indices
// with human-readable names (LinkMonitor does). Fabric owners that know
// the names — the traffic rig, soc.BuildNoC — feed them to any probe
// that asks, so reports print "r2.1" instead of "router 6".
type RouterNamer interface {
	NameRouters(names []string)
}
