// Package scenario is the declarative layer over the simulator: one
// versioned JSON document — a scenario file — declares a complete
// experiment composition (fabric topology and transport knobs, the
// workload offered on it, and the measurement protocol), and the
// package turns it into a run.
//
// Every SoC composition and load experiment in this repository used to
// be hand-wired in Go plus a dozen CLI flags; a scenario makes the same
// composition a reviewable, diffable artifact that any CLI run can load
// (`noctraffic -scenario`, `nocsim -scenario`) or export
// (`-save-scenario`). The pieces:
//
//   - Scenario and friends (scenario.go) — the schema. Version 1;
//     loaders reject other versions. Two workload kinds: "packet"
//     (synthetic patterns on a raw transport fabric) and "soc" (the
//     mixed-protocol SoC, each listed master driven through its NIU
//     with its own rate, window, burst shape, priority class, and
//     target address window).
//
//   - Load/Save (load.go) — strict decoding (unknown fields are errors
//     with line:column positions) and the round-trip guarantee:
//     Load∘Save is the identity, and an exported scenario reproduces
//     the identical seeded result.
//
//   - Validate (validate.go) — every error names the offending field by
//     its JSON path ("workload.masters[2].target overlaps …"), so a
//     broken file is fixable without reading this package.
//
//   - The resolver (lower.go) — lowers a scenario onto the existing
//     soc/traffic/obs APIs (traffic.Config, traffic.CampaignConfig,
//     traffic.TransConfig, soc.Config).
//
//   - The executor (execute.go) — Execute runs whichever mode the
//     measure section selects (single, sweep, campaign, trans). It is
//     the one run-mode dispatcher: noctraffic, nocserver and experiment
//     E14 all call it, so the CLI and the server produce the same
//     bytes for the same document by construction.
//
//   - The registry (registry.go) — built-in named compositions
//     (cpu-dma-display, camera-isp-pipeline, hotspot-dram,
//     mixed-protocol-stress, ring-dateline-torture, qos-inversion),
//     validated at init and executed end to end by experiment E14.
//
// The file-format reference, with worked examples, is
// docs/SCENARIOS.md; the experiment handbook that uses it is
// docs/EXPERIMENTS.md.
package scenario
