// Package live runs the GMP protocol on real goroutines with real time:
// one goroutine per process, a pluggable transport (in-memory by default;
// TCP sockets, a UDP beacon plane, or a chaos-degraded wrapper via
// Options.Transport), and a pluggable failure detector
// implementing F1 (§2.2) — the deployment shape the paper targets ("a
// constant flow of requests … which is exactly what occurs in actual
// systems"). The protocol code is the same internal/core state machine
// the simulator runs; only the substrate differs.
//
// Each node's event loop multiplexes three inputs: its mailbox (transport
// deliveries and local tasks), its timers, and a single per-node liveness
// wheel that both emits heartbeat beacons and consults the failure
// detector. Who the wheel covers is the monitoring topology's decision
// (Options.Topology; internal/topology): beacons go to the members that
// watch this node, detector state exists only for the members this node
// watches, both recomputed at every view installation — all-to-all by
// default, O(k) per node under ring-k. Beacons coalesce: a protocol send
// doubles as a beacon, so a pure Heartbeat goes out only on channels
// silent for a full interval.
// Suspicion policy is delegated to an fd.Detector chosen per group
// through Options.Detector — the fixed SuspectAfter timeout by default,
// the adaptive φ-accrual detector as the alternative — and the detector's
// graded suspicion level travels onto the recorded Faulty trace events
// (core.LevelRecorder). A stall guard protects the wheel itself: a node
// whose own loop was descheduled longer than half the suspicion threshold
// re-arms its observations instead of suspecting every peer at once,
// since its evidence of their silence is indistinguishable from its own
// absence.
//
// Under a partial topology with a beacon plane, point-to-point-learned
// suspicions disseminate as SuspicionDigest batches riding the beacons
// themselves (Options.Digests; DESIGN.md §10): a pending digest replaces
// that interval's heartbeat on each beacon edge, per-edge sent-sets and
// a per-view absorb dedup bound the flood to one crossing per monitoring
// edge, and DigestOff (or a plane-less transport) falls back to the
// point-to-point relay. Options.Self/Roster boot a single-member cluster
// for multi-process deployments — one OS process per member, wired by
// address exchange and bootstrapped by BootstrapSelf (E19's harness).
//
// Installed views are published on a bounded stream; overflow is counted
// (Cluster.Dropped), never blocking the protocol. Transport-level drop
// accounting is surfaced through Cluster.TransportStats.
package live
