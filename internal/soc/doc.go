// Package soc assembles complete systems-on-chip from one fixed set of
// mixed-socket IP blocks — seven masters (AXI, OCP, AHB, PVCI, BVCI,
// AVCI, proprietary; eight with Config.Wishbone) and four memory targets
// (AXI, OCP, AHB, BVCI; five with Config.Wishbone) — on either
// interconnect:
//
//   - BuildNoC: the paper's Fig 1 — every IP plugs into the layered NoC
//     through its protocol's NIU;
//   - BuildBus: the paper's Fig 2 — an AHB reference bus, the AHB master
//     native, everything else behind bridges.
//
// Because the IP models and traffic generators are byte-identical across
// the two builds, any behavioural difference is attributable to the
// interconnect — which is the paper's whole argument.
//
// Beyond the self-checking generator workload (Config.RequestsPerMaster,
// driven by System.Run), the package exposes two measurement hooks the
// workload layers build on: System.Sockets returns every master engine
// as an ip.Socket, whose Issue performs one transaction (how
// traffic.RunTrans drives load through the NIUs; System.Issuers wraps
// it as a bool-callback closure per master), and Config.Probe
// attaches an internal/obs instrumentation probe to the NoC fabric and
// every NIU engine from cycle 0. Config.MasterPriority lets individual
// master NIUs inject at a non-default QoS priority, which is how the
// declarative scenario layer (internal/scenario) expresses per-master
// priority classes.
package soc
