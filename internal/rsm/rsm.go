package rsm

import (
	"errors"
	"sync/atomic"
	"time"

	"procgroup/internal/broadcast"
	"procgroup/internal/ids"
	"procgroup/internal/live"
)

// StateMachine is the deterministic application a Node replicates. All
// three methods run on the node's event loop; Apply must be a pure
// function of the machine's state and the command bytes, because every
// replica applies the same command sequence and divergence here is
// divergence forever.
type StateMachine interface {
	// Apply executes one command and returns its response.
	Apply(cmd []byte) []byte
	// Snapshot serializes the full state for joiner state transfer.
	Snapshot() []byte
	// Restore replaces the state with a snapshot.
	Restore(snap []byte)
}

// LocalReader is optionally implemented by state machines whose read-only
// commands can be answered from local state without mutating it. A Node
// uses it for the ReadLocal fast path: the read executes here, fenced on
// the stability frontier instead of entering the total order. ok must be
// false for any command that writes.
type LocalReader interface {
	ReadLocal(cmd []byte) (resp []byte, ok bool)
}

// Config wires one replica.
type Config struct {
	// Machine is the application state machine (required).
	Machine StateMachine
	// Recorder, when set, captures every order position this replica
	// processes for the total-order and linearizability checkers.
	Recorder *Recorder
	// Broadcast tunes the underlying broadcast layer (optional).
	Broadcast broadcast.Config
}

// ErrTimeout reports a Propose that saw no outcome in time — the node
// died, or stability is blocked behind a membership change that has not
// completed yet. The command may still execute; the caller must treat it
// as unacknowledged, not as failed.
var ErrTimeout = errors.New("rsm: propose timed out")

// ReadConcern selects how a Read executes.
type ReadConcern int

const (
	// ReadLocal serves the read from this replica's state behind the
	// stability fence: capture the value now, complete once the captured
	// prefix is stable. Linearizable — the fence guarantees the read never
	// exposes state a crash could still lose, and the capture point (which
	// lies between invoke and complete) is the linearization point — but
	// it costs no total-order traffic. Falls back to the sequenced path
	// when the machine has no LocalReader or local state is not fenceable
	// (a member that has applied nothing since it started or restored a
	// snapshot).
	ReadLocal ReadConcern = iota
	// ReadLinearizable sequences the read through the total order like a
	// write — the conservative path, and the only one for machines whose
	// reads are not side-effect-free.
	ReadLinearizable
)

// ReadResult is one Read's outcome plus the identity the certification
// harness correlates it with: a sequenced read has an order (Origin,
// PubID); a local read has the fence — the last command applied here at
// capture, naming the order prefix the returned value reflects.
type ReadResult struct {
	Resp  []byte
	Local bool
	PubID uint64 // sequenced path: this origin's order identity
	Fence CmdID  // local path: zero means "read of the empty prefix"
}

// Node is one replica of the state machine: a broadcast endpoint that
// applies the delivered total order and acks proposals at stability. Any
// replica accepts writes — commands funnel through the current view's
// sequencer regardless of which member they enter at. Build one per
// process with NewNode from a live.AppHookFactory.
type Node struct {
	ln   live.AppNode
	b    *broadcast.Broadcaster
	sm   StateMachine
	rec  *Recorder
	rsh  *recShard
	self ids.ProcID
	resp map[uint64][]byte // loop-owned: Apply responses for own proposals

	// Loop-owned read-fence identity: the last command applied here names
	// the global-order prefix the local state equals, which is what a
	// local read's linearization point is certified against. It is
	// invalid until the first apply: before its first ViewSync a member
	// does not know which prefix it holds (a joiner's empty state is not
	// the group's), and a Restore invalidates it again (the snapshot's
	// coverage has no single command name).
	fenceID CmdID
	fenceOK bool

	localReads     atomic.Uint64
	sequencedReads atomic.Uint64
	readFallbacks  atomic.Uint64
}

// NewNode builds a replica on one live node. Returns the Node; install
// node.Hook() as the live AppHook (or use the one-liner factory in the
// root package).
func NewNode(n live.AppNode, cfg Config) *Node {
	node := &Node{
		ln:   n,
		sm:   cfg.Machine,
		rec:  cfg.Recorder,
		self: n.ID(),
		resp: make(map[uint64][]byte),
	}
	if cfg.Recorder != nil {
		node.rsh = cfg.Recorder.shardFor(node.self)
	}
	bc := cfg.Broadcast
	bc.Deliver = node.deliver
	bc.Observe = node.observe
	bc.Snapshot = cfg.Machine.Snapshot
	bc.Restore = node.restore
	node.b = broadcast.New(n, bc)
	return node
}

// Hook is the live.AppHook to install for this replica.
func (n *Node) Hook() live.AppHook { return n.b }

// Broadcaster exposes the underlying broadcast layer (stats, tests).
func (n *Node) Broadcaster() *broadcast.Broadcaster { return n.b }

// ID is the replica's process identity.
func (n *Node) ID() ids.ProcID { return n.self }

// Stats is one replica's broadcast and read-path counters.
type Stats struct {
	Broadcast broadcast.StatsSnapshot
	// LocalReads served behind the stability fence; SequencedReads went
	// through total order (ReadLinearizable or fallback); ReadFallbacks
	// counts ReadLocal requests that had to fall back.
	LocalReads     uint64
	SequencedReads uint64
	ReadFallbacks  uint64
}

// Stats reads the replica's counters; safe from any goroutine.
func (n *Node) Stats() Stats {
	return Stats{
		Broadcast:      n.b.StatsRef().Snapshot(),
		LocalReads:     n.localReads.Load(),
		SequencedReads: n.sequencedReads.Load(),
		ReadFallbacks:  n.readFallbacks.Load(),
	}
}

// Add sums two replicas' stats (group aggregation).
func (a Stats) Add(b Stats) Stats {
	a.Broadcast = a.Broadcast.Add(b.Broadcast)
	a.LocalReads += b.LocalReads
	a.SequencedReads += b.SequencedReads
	a.ReadFallbacks += b.ReadFallbacks
	return a
}

// deliver applies one command in total order (event loop).
func (n *Node) deliver(m broadcast.Msg) {
	out := n.sm.Apply(m.Body)
	n.fenceID = CmdID{Origin: m.Origin, PubID: m.PubID}
	n.fenceOK = true
	if m.Origin == n.self {
		n.resp[m.PubID] = out
	}
}

// restore installs a state-transfer snapshot (event loop). The snapshot
// covers an order prefix no single command names, so the read fence is
// invalid until the next apply — local reads fall back meanwhile.
func (n *Node) restore(snap []byte) {
	n.sm.Restore(snap)
	n.fenceID = CmdID{}
	n.fenceOK = false
}

// observe records every processed order position (event loop).
func (n *Node) observe(m broadcast.Msg, applied bool) {
	if n.rsh != nil {
		n.rsh.observe(m, applied)
	}
}

// ProposeAsync replicates cmd without blocking; done runs on the node's
// event loop once the command is *stable* — applied into the total order
// and acknowledged by every member of an installed view — with the local
// Apply response and the origin pubID. done never fires if the node
// itself dies; callers own that timeout. Pipelined clients (the bench's
// windowed load generators) use this to keep many commands in flight per
// goroutine.
func (n *Node) ProposeAsync(cmd []byte, done func(resp []byte, pubID uint64, err error)) {
	n.b.Propose(cmd, func(id uint64, err error) {
		var out []byte
		if err == nil {
			out = n.resp[id]
			delete(n.resp, id)
		}
		done(out, id, err)
	})
}

// Propose replicates cmd and blocks until it is stable, then returns the
// local Apply response. Safe from any goroutine. The returned pubID is
// this origin's sequence number for the command, the identity checkers
// correlate client ops with order entries by. On timeout the command's
// fate is unknown (see ErrTimeout).
func (n *Node) Propose(cmd []byte, timeout time.Duration) (resp []byte, pubID uint64, err error) {
	type result struct {
		out []byte
		id  uint64
		err error
	}
	ch := make(chan result, 1)
	n.ProposeAsync(cmd, func(out []byte, id uint64, err error) {
		ch <- result{out, id, err}
	})
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.out, r.id, r.err
	case <-t.C:
		return nil, 0, ErrTimeout
	}
}

// Read executes a read-only command under the given concern. Safe from
// any goroutine. ReadLocal runs it on this replica behind the stability
// fence — no broadcast traffic — and falls back to the sequenced path
// when local state is not fenceable; ReadLinearizable always sequences.
func (n *Node) Read(cmd []byte, rc ReadConcern, timeout time.Duration) (ReadResult, error) {
	if rc == ReadLocal {
		if _, ok := n.sm.(LocalReader); ok {
			res, done, err := n.readLocal(cmd, timeout)
			if done {
				return res, err
			}
			n.readFallbacks.Add(1)
		} else {
			n.readFallbacks.Add(1)
		}
	}
	resp, id, err := n.Propose(cmd, timeout)
	if err != nil {
		return ReadResult{}, err
	}
	n.sequencedReads.Add(1)
	return ReadResult{Resp: resp, PubID: id}, nil
}

// readLocal is the fenced fast path: capture the value and the fence on
// the event loop, complete once the captured prefix is stable. done is
// false when the read must fall back to the sequenced path.
func (n *Node) readLocal(cmd []byte, timeout time.Duration) (res ReadResult, done bool, err error) {
	type capture struct {
		res ReadResult
		ok  bool
	}
	ch := make(chan capture, 1)
	n.ln.Run(func() {
		if !n.fenceOK {
			ch <- capture{}
			return
		}
		out, ok := n.sm.(LocalReader).ReadLocal(cmd)
		if !ok {
			ch <- capture{}
			return
		}
		r := ReadResult{Resp: out, Local: true, Fence: n.fenceID}
		n.b.Fence(func() { ch <- capture{res: r, ok: true} })
	})
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c := <-ch:
		if !c.ok {
			return ReadResult{}, false, nil
		}
		n.localReads.Add(1)
		return c.res, true, nil
	case <-t.C:
		return ReadResult{}, true, ErrTimeout
	}
}
