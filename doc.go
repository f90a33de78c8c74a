// Package procgroup is a from-scratch implementation of the group
// membership protocol of Ricciardi & Birman, "Using Process Groups to
// Implement Failure Detection in Asynchronous Environments" (Cornell
// TR 91-1188 / PODC 1991): an asymmetric, coordinator-driven membership
// service that turns unreliable failure suspicions into an agreed, totally
// ordered sequence of views — the mechanism underlying ISIS-style virtual
// synchrony.
//
// The package exposes two ways to run the protocol:
//
//   - StartGroup boots a live group: one goroutine per process, a
//     pluggable transport, and a pluggable heartbeat failure detector.
//     This is the deployment shape for applications.
//
//   - NewSim builds a deterministic simulation on virtual time with exact
//     message accounting, adversarial failure injection (crashes in
//     mid-broadcast, spurious suspicions, partitions) and a GMP property
//     checker. This is the shape for tests, benchmarks, and reproducing
//     the paper's evaluation.
//
// Three live-group dimensions are selectable per group:
//
//   - Transport (GroupOptions.Transport): in-process delivery (default),
//     real TCP sockets (NewTCPTransport), a UDP datagram plane
//     (NewUDPTransport), the two-plane wire that keeps beacons on UDP
//     and protocol traffic on a stream (NewUDPBeaconTransport — the
//     failure detector's samples can no longer queue behind bulk data),
//     or any of those degraded by the chaos harness
//     (NewChaosTransport — per-link delay, jitter, beacon loss, burst
//     outages, asymmetric partitions).
//
//   - Failure detection (GroupOptions.Detector): the classic fixed
//     silence threshold (NewFixedTimeoutDetector, the default via
//     GroupOptions.SuspectAfter) or the adaptive φ-accrual detector
//     (NewAccrualDetector), which fits per-peer arrival statistics so
//     detection latency tracks measured link behavior — the paper's §2.2
//     observation that agreement time is detector-bound, attacked at the
//     detector.
//
//   - Monitoring topology (GroupOptions.Topology): all-to-all monitoring
//     (NewFullTopology, the default) or ring-k (NewRingTopology), where
//     each member watches only its k rank-successors — F1 never required
//     all-to-all observation, so beacon traffic and TCP connection count
//     drop from O(n²) to O(n·k), with suspicions relayed around the ring
//     to whoever needs them (DESIGN.md §8).
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record of every table and
// figure (E16 covers the detector A/B under chaos, E17 the topology
// scaling sweep).
package procgroup
