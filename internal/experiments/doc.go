// Package experiments implements the reproduction harness: one
// function per experiment, each returning paper-style tables that
// cmd/nocbench prints (and, with -json, archives machine-readably as
// BENCH_*.json). cmd/nocbench -only runs any subset; the
// repository-root benchmarks time only runs they build themselves.
//
// The suite, in nocbench order (see the top-level README.md for the
// one-line claims):
//
//	E1  — socket-capability compatibility matrix, NoC vs bridged bus
//	E2  — same workload, same seed: latency/runtime/area on both interconnects
//	E3  — wormhole vs store-and-forward is invisible at transaction level
//	E4  — one Tag header serves three ordering models
//	E5  — NIU gate count scales with outstanding transactions
//	E6  — legacy READEX/LOCK starves transport; the exclusive service doesn't
//	E7  — per-priority latency under congestion (QoS)
//	E8  — link-width serialization and clock-crossing penalties
//	E9  — exclusive-access service ablation
//	E10 — latency-vs-offered-load sweeps (crossbar vs mesh, wormhole vs SAF)
//	E11 — the WISHBONE drop-in: adapter cost and latency vs AHB/BVCI
//	E12 — cross-topology campaign: saturation and p99 for all five fabrics
//	E13 — congestion heatmap: which links saturate first, and why E12's
//	      hotspot cliff is topology-independent (internal/obs)
//	E14 — declarative scenarios: every built-in internal/scenario
//	      composition resolved, run, and re-run bit-identically
//	E15 — self-profiled hotspot sweep: live metrics attached
//	      (internal/obs/metrics) are a pure observer — results stay
//	      byte-identical, and the cycles/sec trajectory is archived
//	E16 — hybrid-fidelity error bounds: the loosely-timed analytic
//	      link model vs cycle-accurate ground truth on its operating
//	      envelope (latency within 5%, throughput within 1%, >= 2x
//	      speedup), saturated built-ins as fallback stress rows
//

// The per-experiment handbook — which paper claim each experiment
// reproduces, the command to run it, the expected output shape, and the
// CI artifact it feeds — is docs/EXPERIMENTS.md.
package experiments
