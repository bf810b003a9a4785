// Package traffic is the synthetic-workload engine for the NoC: the
// standard pattern generators used to evaluate on-chip networks
// (uniform-random, hotspot, transpose, bit-complement, nearest-neighbor,
// bursty streaming), injected either open-loop (a Bernoulli process at a
// configured offered load) or closed-loop (a fixed window of outstanding
// transactions per source), with warmup/measurement/drain phases and
// per-flow latency histograms.
//
// Every source models a request/response transaction: a request packet
// travels to the destination, a reflector there answers with a response
// sized by the read/write mix, and latency is measured from generation
// to response arrival — so the curves include source queueing, both
// network directions, and ejection, exactly like the latency-vs-offered-
// load methodology of the NoC literature.
//
// Two engines share this configuration surface:
//
//   - Run/Sweep drive raw transport fabrics (packets through
//     transport.Endpoint), which is how saturation curves per topology,
//     switching mode, and QoS setting are produced (experiments E10 and
//     E12, cmd/noctraffic); Campaign fans a (topology × pattern × rate)
//     product of such runs across a worker pool. One point runner runs
//     every sweep and campaign point: a sweep is its rates at the base
//     seed on one worker, a campaign its product at forked seeds on
//     many. The runner alone reports points (progress tracker and
//     OnPoint), and it hands a point's panic back to the caller;
//   - RunTrans drives the full mixed-protocol SoC through its existing
//     NIUs via ip.Socket.Issue, measuring transaction latency end-to-end
//     through the protocol engines — uniformly (the run-wide knobs), or
//     per master via TransConfig.Roles: each TransRole names a socket
//     and sets its own rate, outstanding window, burst shape, NIU
//     priority class, and target address window. Roles are the lowering
//     target of the declarative scenario layer (internal/scenario).
//
// Both accept an internal/obs probe (Config.Probe, TransConfig.Probe,
// CampaignConfig.HeatmapBuckets) for per-run traces and congestion
// heatmaps, and both run their warmup, measure and drain phases, with
// the self-profiling publish step and the exact drain cap, through one
// phase runner. Fabric shapes are transport's: Topology is
// transport.Topology, built by transport.Build and sized for
// whole-packet buffering by transport.WholePacketDepth.
//
// Sources and RunTrans's issuers sleep between injections. They make
// their per-cycle Bernoulli draws ahead, in cycle order, up to the next
// success, in one batched call (sim.RNG.Until, through one shared
// helper), and arm sim.Waker.WakeAt for it, so a lightly loaded run
// evaluates them only on cycles with work, and every seeded result is
// the one per-cycle draws give.
//
// Each packet source logs its measured completions as flat (destination,
// latency) records; Run builds the per-flow digests from them at the
// end of the run, one sort per source. Sweep and campaign points skip
// them.
package traffic
