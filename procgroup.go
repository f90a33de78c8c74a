package procgroup

import (
	"time"

	"procgroup/internal/check"
	"procgroup/internal/core"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/member"
	"procgroup/internal/scenario"
	"procgroup/internal/topology"
	"procgroup/internal/transport"
)

// Re-exported identity and membership types.
type (
	// ProcID identifies one process instance; recoveries use fresh
	// incarnations (GMP-4).
	ProcID = ids.ProcID
	// View is a local membership view with seniority ranks.
	View = member.View
	// Version numbers successive views.
	Version = member.Version
	// Op is a single membership update (add or remove).
	Op = member.Op
	// Config selects the protocol variant (compression, majority gate,
	// initiation timeout).
	Config = core.Config
	// Report is the verdict of the GMP property checker.
	Report = check.Report
	// ViewUpdate is one installed view streamed from a live group.
	ViewUpdate = live.ViewUpdate
	// GroupOptions configures StartGroup.
	GroupOptions = live.Options
	// SimOptions configures NewSim.
	SimOptions = scenario.Options
	// Group is a running live process group.
	Group = live.Cluster
	// Sim is a deterministic simulated process group.
	Sim = scenario.Cluster
	// Transport is the pluggable live-message substrate; set it on
	// GroupOptions.Transport to choose how the group's channels are
	// realized (nil = in-process delivery).
	Transport = transport.Transport
	// TransportStats is a transport's per-reason drop accounting, read
	// from a live group with Group.TransportStats.
	TransportStats = transport.Stats
	// TCPTransport runs the group's channels over real TCP sockets.
	TCPTransport = transport.TCP
	// UDPTransport is the connectionless datagram plane: one socket per
	// process, one datagram per frame, no queues. Built by
	// NewUDPTransport; usually composed under a TwoPlaneTransport as
	// the beacon plane rather than used alone.
	UDPTransport = transport.UDP
	// TwoPlaneTransport splits a group's traffic by class: beacons ride
	// a dedicated datagram plane, protocol messages the stream plane.
	// Built by NewUDPBeaconTransport (or NewTwoPlaneTransport for
	// custom plane pairings).
	TwoPlaneTransport = transport.TwoPlane
	// DetectorFactory selects a live group's failure-detection policy
	// (F1, §2.2): set it on GroupOptions.Detector. Nil keeps the fixed
	// SuspectAfter timeout.
	DetectorFactory = fd.Factory
	// AccrualDetectorOptions tunes the adaptive φ-accrual detector of
	// NewAccrualDetector.
	AccrualDetectorOptions = fd.AccrualOptions
	// HysteresisOptions tunes the suspicion-hysteresis wrapper of
	// NewHysteresisDetector.
	HysteresisOptions = fd.HysteresisOptions
	// HysteresisStats aggregates crossing/flap/mistake counters across
	// every detector built from one NewHysteresisDetector factory — set
	// it on HysteresisOptions.Stats to read cluster-wide detector QoS.
	HysteresisStats = fd.HysteresisStats
	// ReadmitPolicy rate-limits readmission of recently excluded sites
	// (GroupOptions.Readmit): a flapping site's rebirths are metered by
	// a per-site token bucket — delayed, never denied. The zero value
	// disables the governor.
	ReadmitPolicy = live.ReadmitPolicy
	// ChaosTransport degrades any inner transport with per-link delay,
	// jitter, loss, bursts and asymmetric partitions — the live chaos
	// harness. Its SetLink/Partition/Heal methods reconfigure adversity
	// while the group runs.
	ChaosTransport = transport.Chaos
	// ChaosTransportOptions configures NewChaosTransport.
	ChaosTransportOptions = transport.ChaosOptions
	// ChaosLink shapes one directed link of a ChaosTransport.
	ChaosLink = transport.ChaosLink
	// Topology selects who monitors whom in a live group (F1's
	// monitoring relation decoupled from membership); set it on
	// GroupOptions.Topology. Nil keeps all-to-all monitoring.
	Topology = topology.Topology
	// DigestMode selects how suspicions disseminate under a partial
	// topology (GroupOptions.Digests): DigestAuto batches them into
	// beacon-borne digests wherever a beacon plane exists, DigestOff
	// forces the point-to-point relay flood.
	DigestMode = live.DigestMode
)

// Digest dissemination modes for GroupOptions.Digests.
const (
	// DigestAuto (the default) rides suspicion digests on the beacon
	// plane whenever the transport has one and the topology is partial.
	DigestAuto = live.DigestAuto
	// DigestOff forces the point-to-point suspicion relay everywhere —
	// the A/B baseline of the scale experiment (E19).
	DigestOff = live.DigestOff
)

// NewInmemTransport builds the default in-process transport explicitly
// (StartGroup uses one automatically when GroupOptions.Transport is nil).
func NewInmemTransport() Transport { return transport.NewInmem() }

// NewTCPTransport builds a transport running the group's channels over
// real TCP sockets on loopback — the paper's asynchronous network of
// reliable FIFO channels (§2.1) made literal. Every unordered peer pair
// shares one multiplexed connection carrying channel-tagged binary
// frames, dialed lazily on first use: under all-to-all monitoring an
// n-process group settles at n(n−1)/2 sockets, under NewRingTopology(k)
// at ~n·k (TransportStats().ConnsOpen measures it). Use the returned
// value's AddPeer/Addr to span OS processes or hosts.
func NewTCPTransport() *TCPTransport { return transport.NewTCP() }

// NewUDPTransport builds the bare datagram plane on loopback: sends are
// fire-and-forget datagrams with no connections and no backpressure.
// It satisfies the Transport contract but deliberately provides only
// best-effort ordering, so it suits order-free traffic (beacons) —
// compose it under NewUDPBeaconTransport for a full group substrate.
func NewUDPTransport() *UDPTransport { return transport.NewUDP() }

// NewUDPBeaconTransport composes stream with a fresh loopback UDP
// datagram plane into a two-plane substrate: heartbeats bypass the
// stream plane's queues and connections entirely, so a neighbor
// saturating its link cannot delay — and thereby distort — the timing
// evidence the failure detector runs on. When stream is nil a loopback
// TCP transport is used. The live runtime detects the split and emits
// beacons cadence-pure (every interval, no piggyback suppression),
// giving adaptive detectors the cleanest possible inter-arrival
// samples.
func NewUDPBeaconTransport(stream Transport) *TwoPlaneTransport {
	if stream == nil {
		stream = transport.NewTCP()
	}
	return transport.NewTwoPlane(stream, transport.NewUDP())
}

// NewTwoPlaneTransport composes an explicit stream plane and beacon
// plane — e.g. to wrap either plane in NewChaosTransport and degrade
// one traffic class without the other.
func NewTwoPlaneTransport(stream, beacon Transport) *TwoPlaneTransport {
	return transport.NewTwoPlane(stream, beacon)
}

// NewFixedTimeoutDetector selects the classic fixed-threshold failure
// detector: suspect a member once its silence exceeds after. This is the
// default policy (GroupOptions.SuspectAfter) made explicit, for A/B runs
// against the adaptive detector.
func NewFixedTimeoutDetector(after time.Duration) DetectorFactory {
	return fd.NewTimeoutFactory(after)
}

// NewAccrualDetector selects the adaptive φ-accrual failure detector: each
// node fits a per-peer inter-arrival distribution from observed traffic
// and suspects a member once the probability of its current silence drops
// below 10^−Phi. Detection latency then tracks each link's measured
// behavior instead of a global worst-case constant — the paper's §2.2
// observation that agreement time is detector-bound, attacked at the
// detector. A zero options value selects the documented defaults.
func NewAccrualDetector(opts AccrualDetectorOptions) DetectorFactory {
	return fd.NewAccrualFactory(opts)
}

// NewHysteresisDetector wraps any detector factory with suspicion
// hysteresis: a threshold crossing must survive a further dwell of
// continuous silence before it surfaces as a suspicion, and a peer whose
// crossings keep recovering (a flapping link, a stalling scheduler) pays
// an exponentially decaying dwell penalty on its next ones. This is the
// root-cause fix for the false-suspicion cascade (§4.3): transient
// silence — a GC pause, an event-loop stall, a link flap at the
// detection threshold — is forgiven when the evidence recovers, while a
// genuinely dead member is still detected one dwell later. Dwell 0 is a
// measurement-only passthrough: behavior is unchanged but the shared
// HysteresisStats still count crossings and mistakes.
func NewHysteresisDetector(inner DetectorFactory, opts HysteresisOptions) DetectorFactory {
	return fd.NewHysteresisFactory(inner, opts)
}

// NewChaosTransport wraps inner with configurable link adversity (delay,
// jitter, loss, burst outages, asymmetric partitions — per directed peer
// pair, reconfigurable at runtime). It preserves per-channel FIFO order,
// so jitter stretches channels without reordering them; see
// ChaosLink.Loss for the one knob that deliberately steps outside the
// paper's channel assumptions.
func NewChaosTransport(inner Transport, opts ChaosTransportOptions) *ChaosTransport {
	return transport.NewChaos(inner, opts)
}

// NewFullTopology selects all-to-all monitoring: every member beacons to
// and watches every other, the default (GroupOptions.Topology = nil) made
// explicit for A/B runs. Beacon traffic and TCP connection count grow
// quadratically with the group.
func NewFullTopology() Topology { return topology.Full{} }

// NewRingTopology selects ring-k monitoring: the view's seniority order
// is closed into a ring and each member watches its k rank-successors
// (and beacons to its k rank-predecessors), recomputed at every view
// installation so churn re-closes the ring. Beacon traffic is O(n·k) and
// a TCP group settles at ~n·k connections instead of n(n−1)/2; a
// monitor's suspicion reaches the coordinator via the relay path riding
// F2 gossip, preserving F1's eventual-suspicion contract (see
// DESIGN.md §8 and experiment E17). k ≤ 0 selects the default (3);
// k ≥ n−1 degenerates to full monitoring.
func NewRingTopology(k int) Topology { return topology.RingK{K: k} }

// NewHierTopology selects hierarchical monitoring: the view's seniority
// order is cut into contiguous clusters of clusterSize, each closed into
// an intra-cluster ring-k, and the cluster leaders (each cluster's most
// senior member) form a ring-k of their own that stitches the clusters
// together. Beacon traffic stays O(n·k) like a flat ring while the
// leader ring shortens the suspicion-dissemination diameter from O(n/k)
// hops to O(clusterSize/k + n/(clusterSize·k)) — the shape that keeps
// exclusion latency flat as the group grows past the flat ring's scale
// wall (experiment E19). Values ≤ 0 select the defaults (clusters of 8,
// k = 3); one cluster degenerates to exactly NewRingTopology(k).
func NewHierTopology(clusterSize, k int) Topology {
	return topology.Hier{C: clusterSize, K: k}
}

// ParseTopology resolves the textual topology vocabulary shared by the
// CLI tools: "full", "ring[:k]", or "hier[:c[:k]]".
func ParseTopology(spec string) (Topology, error) { return topology.Parse(spec) }

// Named returns the incarnation-0 identifier for a site name.
func Named(site string) ProcID { return ids.Named(site) }

// Processes generates the conventional initial membership p1..pn.
func Processes(n int) []ProcID { return ids.Gen(n) }

// DefaultConfig is the paper's final algorithm: compressed rounds, majority
// gate, initiation timeout.
func DefaultConfig() Config { return core.DefaultConfig() }

// StartGroup boots a live process group of opts.N members and returns once
// its goroutines are running. Callers own the group and must Stop it.
func StartGroup(opts GroupOptions) *Group { return live.Start(opts) }

// NewSim builds a deterministic simulated group. Schedule failures and
// joins, call Run to quiescence, then inspect views, message counts and
// the checker's Report.
func NewSim(opts SimOptions) *Sim { return scenario.New(opts) }

// Message-count labels for the §7.2 complexity accounting, usable with
// Sim.Messages.
var (
	// ExclusionLabels are the messages of the two-phase update algorithm.
	ExclusionLabels = core.ExclusionLabels
	// ReconfigLabels are the messages of the three-phase reconfiguration.
	ReconfigLabels = core.ReconfigLabels
	// ProtocolLabels is every protocol message kind.
	ProtocolLabels = core.ProtocolLabels
)
