// Package obs is the observability layer of the NoC simulator: a
// zero-overhead-when-disabled instrumentation surface (Probe) that the
// transport fabric, the NIU engines, and the workload layers call at the
// interesting moments of a transaction's life, plus the sinks that turn
// those calls into artifacts — a JSONL event trace (SpanRecorder), an
// aggregated congestion heatmap (LinkMonitor), and a Chrome
// `trace_event` file that opens directly in Perfetto or chrome://tracing
// (WriteChromeTrace).
//
// The package sits below transport in the import graph (it knows node
// IDs and nothing else about the fabric), so every layer can emit events
// without cycles: transport, niu, traffic and soc all accept an optional
// Probe and fan their events into it.
//
// # The Probe contract
//
// Probe is deliberately one method wide. Implementations must obey, and
// callers may rely on, the following:
//
//   - Disabled == nil. The fabric keeps a plain Probe field that is nil
//     by default; every emission site guards with a single `!= nil`
//     check, so an uninstrumented run pays one predictable branch per
//     site and zero allocations (Event is passed by value into a
//     concrete-typed parameter — nothing escapes). The transport
//     hot-path allocation guard in CI (BENCH_transport.json) pins this.
//
//   - Hot path: Event is called from inside sim.Clocked Eval phases,
//     up to once per flit per switch output per cycle. An
//     implementation must not block, must not panic on unknown Kinds
//     (new kinds may be added), and should be O(1)-ish per call.
//
//   - Buffer samples are opt-out. KindBufSample is the one kind the
//     fabric emits on every cycle, with or without a packet moving, so
//     an empty fabric stays awake for a probe that reads it. A probe
//     that does not implements BufferSampler and answers false; the
//     fabric then emits no samples and sleeps when empty. Every other
//     kind marks a packet or transaction moving, so such a probe sees
//     the same events either way.
//
//   - No reentrancy. An implementation must not call back into the
//     simulator (no TrySend, no RunCycles, no Register) and must not
//     mutate the Event's originating structures; it sees a value copy
//     and may retain it freely.
//
//   - Single-threaded. A Probe is owned by one simulation kernel and is
//     called only from that kernel's (single-threaded) clock loop.
//     Implementations need no locking; conversely a Probe instance must
//     never be shared between concurrently running kernels (the
//     campaign runner gives each point its own monitor for exactly this
//     reason).
package obs
