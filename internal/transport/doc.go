// Package transport is the pluggable message substrate of the live
// runtime: it moves protocol payloads between registered processes while
// preserving the per-channel FIFO order the paper's model assumes (§2.1).
// The live cluster speaks only the Transport interface; the concrete
// implementations are
//
//   - Inmem: direct in-process delivery, the seed's original behavior and
//     the default for tests and single-process deployments;
//   - TCP: real sockets on loopback or a LAN, one multiplexed
//     length-prefixed binary stream per unordered peer pair
//     (channel-tagged frames, per-channel FIFO queues drained by one
//     writer into vectored batches, decoded inline by each connection's
//     reader), with reconnect — the paper's asynchronous network made
//     literal;
//   - UDP: one datagram per frame — no ordering, no retransmission, no
//     backpressure. The wrong contract for protocol traffic and exactly
//     the right one for beacons, whose information content is their
//     arrival time: a drop costs one idempotent sample, while queueing
//     delay (what a shared stream imposes) distorts every inter-arrival
//     the failure detector fits (DESIGN.md §9);
//   - TwoPlane: the composition that routes beacon-class payloads to a
//     datagram plane and everything else to a stream plane, exposing the
//     split via BeaconPlaner so the live runtime can send cadence-pure
//     beacons;
//   - Chaos: a wrapper that degrades any of the above — including UDP —
//     with per-link delay, jitter, beacon loss, burst outages and
//     asymmetric partitions, reconfigurable at runtime — the live chaos
//     harness that opens the simulator's adversity space
//     (internal/netsim) to the goroutine runtime, used by E16's
//     failure-detector A/B.
//
// Every implementation shares datagram-drop semantics for dead hosts
// (silence is the failure detector's problem, §2.2) and per-reason drop
// accounting through Stats, which also gauges send-queue depth (current
// and high-water) so congestion is observable before it becomes drops,
// and counts suspicion-class frames (Stats.SuspicionFrames) so the
// digest-vs-relay dissemination cost of DESIGN.md §10 is measured at
// the wire. The TCP stream plane honors the reliable-FIFO contract
// through transient faults: simultaneous opens resolve to the same
// socket on both ends (smaller initiator wins), and the pair writer
// retries failed dials and writes with backoff before accounting a
// drop.
// The wire codec (Frame, AppendFrame / EncodeFrame / ReadFrame /
// DecodeFrame) is a hand-rolled binary format — length-prefixed on
// streams, bare frame body per datagram — covering the whole
// internal/core wire vocabulary plus the payloads substrate layers
// register. It is the only encoding: a payload type with no registered
// codec is a send-side drop, and an unknown kind tag (kind 0 included)
// is a decode error. The format is pinned byte-for-byte by golden tests
// (DESIGN.md §6).
package transport
