package procgroup

import (
	"sync"
	"time"

	"procgroup/internal/broadcast"
	"procgroup/internal/live"
	"procgroup/internal/rsm"
)

// Re-exported replication types (the broadcast/rsm layers above GMP).
type (
	// AppNode is the per-process handle the live runtime hands an
	// application layer: identity, sends to peers, and loop scheduling.
	AppNode = live.AppNode
	// AppHook receives a node's application traffic and view
	// installations on its event loop; set an AppHookFactory on
	// GroupOptions.App to install one per member.
	AppHook = live.AppHook
	// AppHookFactory builds one AppHook per spawned group member.
	AppHookFactory = live.AppHookFactory
	// StateMachine is the deterministic application a Replica replicates.
	StateMachine = rsm.StateMachine
	// Replica is one member's replicated-state-machine endpoint: Propose
	// from any goroutine, acknowledged at stability.
	Replica = rsm.Node
	// ReplicaRecorder captures every order position each replica
	// processes — the raw material of the certification checkers. It is
	// always on and keeps every position: ~40 bytes plus a copy of the
	// body each, packed in pointer-free chunks; Sequences rebuilds the
	// Record values on demand.
	ReplicaRecorder = rsm.Recorder
	// BatchConfig tunes group commit on the broadcast hot path: queued
	// proposals coalesce into one frame, the sequencer assigns contiguous
	// slot ranges, and stability piggybacks on the fan-out. Queues flush
	// at a size cap, when the origin's pipeline drains, or at the end of
	// the event-loop burst — never on a timer. The zero value is the
	// default, 128 entries and 256 KiB per batch; MaxEntries 1 ships
	// every proposal in a batch of its own.
	BatchConfig = broadcast.BatchConfig
	// AckConfig coalesces the members' cumulative delivery acks: one ack
	// per Every entries (default 16), plus one for any remainder at the
	// end of the event-loop burst, instead of one per entry.
	AckConfig = broadcast.AckConfig
	// ReadConcern selects a Read's path: ReadLocal (stability-fenced local
	// execution) or ReadLinearizable (sequenced through total order).
	ReadConcern = rsm.ReadConcern
	// ReadResult is one Read's response plus the identity the
	// certification harness correlates it with.
	ReadResult = rsm.ReadResult
	// ReplicaStats is one replica's broadcast and read-path counters;
	// ReplicaSet.Stats sums them across the group.
	ReplicaStats = rsm.Stats
)

// Read-path concerns (see rsm.ReadConcern).
const (
	ReadLocal        = rsm.ReadLocal
	ReadLinearizable = rsm.ReadLinearizable
)

// ReplicaSet hosts one StateMachine replica per group member. Set
// Factory() on GroupOptions.App before StartGroup; afterwards Replica(p)
// returns member p's endpoint — any member accepts writes, the broadcast
// layer funnels them into one view-synchronous total order (DESIGN.md
// §11), and Propose acks only at stability, so an acknowledged command
// survives any crash or view change.
type ReplicaSet struct {
	machine func() StateMachine
	rec     *rsm.Recorder
	batch   BatchConfig
	ack     AckConfig

	mu    sync.Mutex
	nodes map[ProcID]*Replica
}

// NewReplicaSet builds a replica set over any state machine; machine is
// called once per spawned member and must return a fresh instance.
func NewReplicaSet(machine func() StateMachine) *ReplicaSet {
	return &ReplicaSet{
		machine: machine,
		rec:     rsm.NewRecorder(),
		nodes:   make(map[ProcID]*Replica),
	}
}

// NewReplicatedKV builds a replica set over the built-in key-value state
// machine (commands from KVPut and KVGet) — the examples/kvstore and
// gmpbench -exp kv substrate.
func NewReplicatedKV() *ReplicaSet {
	return NewReplicaSet(func() StateMachine { return rsm.NewKV() })
}

// WithBatching overrides the group-commit configuration applied to every
// replica spawned after the call (DESIGN.md §12); without it replicas run
// the defaults. Call before StartGroup; returns the set for chaining.
func (s *ReplicaSet) WithBatching(batch BatchConfig, ack AckConfig) *ReplicaSet {
	s.batch, s.ack = batch, ack
	return s
}

// Factory is the AppHookFactory to set on GroupOptions.App.
func (s *ReplicaSet) Factory() AppHookFactory {
	return func(n AppNode) AppHook {
		node := rsm.NewNode(n, rsm.Config{
			Machine:  s.machine(),
			Recorder: s.rec,
			Broadcast: broadcast.Config{
				Batch: s.batch,
				Ack:   s.ack,
			},
		})
		s.mu.Lock()
		s.nodes[n.ID()] = node
		s.mu.Unlock()
		return node.Hook()
	}
}

// Replica returns member p's endpoint, or nil before p has spawned.
func (s *ReplicaSet) Replica(p ProcID) *Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[p]
}

// Recorder exposes the shared order recorder for the checkers.
func (s *ReplicaSet) Recorder() *ReplicaRecorder { return s.rec }

// Stats sums the broadcast and read-path counters over every replica
// spawned so far — batch-size histogram, acks sent/suppressed, stability
// piggybacks, local vs sequenced reads — the replication analogue of
// Group.TransportStats.
func (s *ReplicaSet) Stats() ReplicaStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum ReplicaStats
	for _, n := range s.nodes {
		sum = sum.Add(n.Stats())
	}
	return sum
}

// CheckTotalOrder certifies the recorded histories: every replica applied
// the same total order (exactly-once, pairwise consistent under joiner
// alignment, per-view slot agreement), and the replicas in alive
// converged on the same final command. Nil means certified.
func (s *ReplicaSet) CheckTotalOrder(alive []ProcID) error {
	return rsm.CheckTotalOrder(s.rec.Sequences(), alive)
}

// KVPut encodes a write command for the built-in KV machine; the Apply
// response echoes the value written.
func KVPut(key, val string) []byte { return rsm.EncodePut(key, val) }

// KVGet encodes a read command; the Apply response is the key's value at
// the command's own position in the total order.
func KVGet(key string) []byte { return rsm.EncodeGet(key) }

// Propose is a convenience wrapper: replicate cmd through member p of the
// set and wait up to timeout for stability. See Replica.Propose for the
// acknowledgement contract.
func (s *ReplicaSet) Propose(p ProcID, cmd []byte, timeout time.Duration) ([]byte, error) {
	n := s.Replica(p)
	if n == nil {
		return nil, rsm.ErrTimeout
	}
	resp, _, err := n.Propose(cmd, timeout)
	return resp, err
}

// Read executes a read-only command at member p under the given concern.
// ReadLocal serves it from p's state behind the stability fence — no
// total-order traffic — falling back to the sequenced path when local
// state is not fenceable; ReadLinearizable always sequences.
func (s *ReplicaSet) Read(p ProcID, cmd []byte, rc ReadConcern, timeout time.Duration) (ReadResult, error) {
	n := s.Replica(p)
	if n == nil {
		return ReadResult{}, rsm.ErrTimeout
	}
	return n.Read(cmd, rc, timeout)
}
