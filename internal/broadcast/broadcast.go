package broadcast

import (
	"sort"
	"sync/atomic"

	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/member"
)

// Msg is one position of a view's total order as this member processed
// it: the (Ver, Seq) it holds locally, the origin's identity and pub
// counter, and the application body. A message re-sequenced across a view
// change keeps its (Origin, PubID) — that pair is its global identity —
// while (Ver, Seq) names its slot in the order of the view that carried
// it here.
type Msg struct {
	Ver    member.Version
	Seq    uint64
	Origin ids.ProcID
	PubID  uint64
	Body   []byte
}

// BatchConfig tunes group commit on the origin→sequencer leg: queued
// Propose bodies coalesce into one PubBatch frame, flushed when a cap
// trips, when the origin's pipeline drains, or — on the sequencer — at
// the end of the event-loop burst (DESIGN.md §12). A zero field takes its
// default. MaxEntries 1 (or less) is a batch of one: one PubBatch per
// proposal and one SeqdBatch per pub.
type BatchConfig struct {
	// MaxEntries flushes the queue at this many proposals (default 128).
	MaxEntries int
	// MaxBytes flushes the queue at this many queued body bytes
	// (default 256 KiB; stays well under the transport's frame cap).
	MaxBytes int
}

// AckConfig coalesces the member→sequencer delivery acks. Acks are
// cumulative, so one ack covering B entries carries exactly the
// information of B per-entry acks.
type AckConfig struct {
	// Every sends the cumulative ack once this many deliveries are
	// unacknowledged (default 16; 1 or less acks every delivery); a
	// smaller remainder is acked at the end of the event-loop burst that
	// delivered it.
	Every int
}

// Config wires a Broadcaster to its application. All callbacks run on
// the node's event loop.
type Config struct {
	// Deliver applies one message in total order. Exactly-once per
	// (Origin, PubID): a message redelivered by state transfer after a
	// view change is deduplicated before it reaches Deliver.
	Deliver func(Msg)
	// Observe, when set, sees every order position this member processes
	// — applied or deduplicated — in order. Checkers use it to compare
	// the per-view command sequence across members independently of who
	// had already applied what before the view change.
	Observe func(m Msg, applied bool)
	// Snapshot captures the application state for joiner state transfer;
	// Restore installs such a snapshot on a fresh member. Leaving them
	// nil means joiners start from empty state (tests only).
	Snapshot func() []byte
	Restore  func([]byte)
	// MaxBuffered caps the messages parked for views this member has not
	// installed yet (default 4096); beyond it new arrivals are dropped
	// and counted (senders recover by the usual resubmission paths).
	MaxBuffered int
	// Batch tunes group commit (see BatchConfig).
	Batch BatchConfig
	// Ack coalesces delivery acks (see AckConfig).
	Ack AckConfig
}

// Stats counts a Broadcaster's work; fields are atomics so tests and
// benches can read them from any goroutine.
type Stats struct {
	Sequenced       atomic.Uint64 // entries sequenced here (as coordinator)
	Processed       atomic.Uint64 // order positions processed
	Applied         atomic.Uint64 // messages delivered to the app
	BufferedFuture  atomic.Uint64 // messages parked for a future view
	DroppedStale    atomic.Uint64 // old-view messages dropped
	DroppedOverflow atomic.Uint64 // future-view messages dropped at cap
	// OverflowDist buckets the overflow drops by how many views past the
	// current one the dropped frame was addressed to: 1, 2, 3, ≥4.
	// Eviction is farthest-future-first, so under a churn storm the mass
	// should sit in the high buckets — drops at distance 1 starving a
	// pending install's ViewSync are the bias this histogram makes
	// visible. Frames dropped before the first install (no reference
	// view) count in the first bucket.
	OverflowDist [4]atomic.Uint64
	Resubmits    atomic.Uint64 // pubs resubmitted after a view change
	Syncs        atomic.Uint64 // ViewSync rounds completed here

	PubBatches  atomic.Uint64 // PubBatch flushes sent as origin
	SeqdBatches atomic.Uint64 // SeqdBatch fan-outs sent as sequencer
	// BatchHist buckets the sequenced batch sizes (entries per
	// SeqdBatch): 1, 2–4, 5–16, 17–64, ≥65.
	BatchHist [5]atomic.Uint64

	AcksSent       atomic.Uint64 // cumulative AckSeq frames sent
	AcksSuppressed atomic.Uint64 // deliveries that deferred instead of acking

	StablePiggybacked atomic.Uint64 // frontier advances carried by a SeqdBatch
	StableBroadcasts  atomic.Uint64 // standalone Stable fan-outs

	Fences          atomic.Uint64 // read fences registered
	FencesImmediate atomic.Uint64 // fences satisfied without waiting
}

// StatsSnapshot is a plain-value copy of Stats, addable across a group's
// replicas (the root API surfaces the aggregate like TransportStats).
type StatsSnapshot struct {
	Sequenced, Processed, Applied       uint64
	BufferedFuture                      uint64
	DroppedStale, DroppedOverflow       uint64
	OverflowDist                        [4]uint64
	Resubmits, Syncs                    uint64
	PubBatches, SeqdBatches             uint64
	BatchHist                           [5]uint64
	AcksSent, AcksSuppressed            uint64
	StablePiggybacked, StableBroadcasts uint64
	Fences, FencesImmediate             uint64
}

// Snapshot reads every counter once.
func (s *Stats) Snapshot() StatsSnapshot {
	out := StatsSnapshot{
		Sequenced: s.Sequenced.Load(), Processed: s.Processed.Load(), Applied: s.Applied.Load(),
		BufferedFuture: s.BufferedFuture.Load(),
		DroppedStale:   s.DroppedStale.Load(), DroppedOverflow: s.DroppedOverflow.Load(),
		Resubmits: s.Resubmits.Load(), Syncs: s.Syncs.Load(),
		PubBatches: s.PubBatches.Load(), SeqdBatches: s.SeqdBatches.Load(),
		AcksSent: s.AcksSent.Load(), AcksSuppressed: s.AcksSuppressed.Load(),
		StablePiggybacked: s.StablePiggybacked.Load(), StableBroadcasts: s.StableBroadcasts.Load(),
		Fences: s.Fences.Load(), FencesImmediate: s.FencesImmediate.Load(),
	}
	for i := range s.BatchHist {
		out.BatchHist[i] = s.BatchHist[i].Load()
	}
	for i := range s.OverflowDist {
		out.OverflowDist[i] = s.OverflowDist[i].Load()
	}
	return out
}

// Add sums two snapshots field-wise (replica-set aggregation).
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	a.Sequenced += b.Sequenced
	a.Processed += b.Processed
	a.Applied += b.Applied
	a.BufferedFuture += b.BufferedFuture
	a.DroppedStale += b.DroppedStale
	a.DroppedOverflow += b.DroppedOverflow
	for i := range a.OverflowDist {
		a.OverflowDist[i] += b.OverflowDist[i]
	}
	a.Resubmits += b.Resubmits
	a.Syncs += b.Syncs
	a.PubBatches += b.PubBatches
	a.SeqdBatches += b.SeqdBatches
	for i := range a.BatchHist {
		a.BatchHist[i] += b.BatchHist[i]
	}
	a.AcksSent += b.AcksSent
	a.AcksSuppressed += b.AcksSuppressed
	a.StablePiggybacked += b.StablePiggybacked
	a.StableBroadcasts += b.StableBroadcasts
	a.Fences += b.Fences
	a.FencesImmediate += b.FencesImmediate
	return a
}

// histBucket maps a batch size to its BatchHist bucket.
func histBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 16:
		return 2
	case n <= 64:
		return 3
	default:
		return 4
	}
}

// Broadcaster delivers totally-ordered messages within installed views:
// the view's coordinator sequences, every install triggers a flush
// barrier and state transfer (DESIGN.md §11), and messages for views not
// yet installed locally are buffered for redelivery. It runs the
// group-commit wire (DESIGN.md §12): origins coalesce proposals into
// PubBatch frames, the sequencer assigns contiguous slot ranges and
// fans out SeqdBatch frames carrying the stability frontier, and members
// ack coalesced. It implements live.AppHook; attach one per node via
// live.Options.App. All state is loop-owned — only Propose and the Stats
// fields are safe from other goroutines.
type Broadcaster struct {
	n     live.AppNode
	cfg   Config
	self  ids.ProcID
	stats Stats

	installed  bool
	ver        uint64 // current installed view version
	members    []ids.ProcID
	memberSet  ids.Set
	seqID      ids.ProcID // the view's sequencer: its coordinator
	isSeq      bool
	synced     bool // this view's order is open (ViewSync processed/built)
	everSynced bool // false until first sync: a joiner, needs a snapshot

	// order state for the current view
	next    uint64           // next order position to process
	pending map[uint64]Entry // out-of-order entries (defensive; FIFO feeds us in order)
	applied map[ids.ProcID]uint64
	log     []Entry // retained entries above stable, ascending Seq
	stable  uint64

	// cross-view buffers
	future  map[uint64][]futureMsg // ver → messages parked until that install
	futureN int
	preSync []futureMsg // current-view traffic arriving before sync (defensive)
	pubHold []heldPub   // pubs held while this node is the (un-synced) sequencer

	// origin state
	nextPub  uint64
	inflight map[uint64]*pubState

	// origin group-commit queue: pubIDs awaiting a flush
	pubQueue      []uint64
	pubQueueBytes int
	pubsUnseqd    int // own pubs shipped but not yet slotted (pipeline depth)

	// member ack coalescing
	ackLast uint64 // highest seq acked to the sequencer this view

	// end-of-burst flush: endBurstFn is b.endBurst, built once so arming
	// the flush allocates nothing; burstArmed keeps it posted at most once.
	endBurstFn func()
	burstArmed bool

	// read fences: stability-fenced local reads (DESIGN.md §12)
	fences []fence

	// sequencer state
	seqNext     uint64
	acks        map[ids.ProcID]uint64
	flushes     map[ids.ProcID]Flush
	stableDirty bool // frontier advanced; piggyback on the next SeqdBatch
}

// fenceResync marks a fence awaiting the view's sync before it can be
// given a seq target.
const fenceResync = ^uint64(0)

type fence struct {
	seq uint64 // release once stable ≥ seq (current view)
	fn  func()
}

// heldPub is one pub parked at a sequencer that cannot slot it yet.
type heldPub struct {
	origin ids.ProcID
	item   PubItem
}

type futureMsg struct {
	from    ids.ProcID
	payload any
}

type pubState struct {
	body []byte
	done func(pubID uint64, err error)
	seq  uint64 // slot in the current view's order; 0 = unassigned
}

// New builds a Broadcaster for one node. Use it from a live.AppHookFactory:
//
//	opts.App = func(n live.AppNode) live.AppHook {
//		return broadcast.New(n, cfg)
//	}
func New(n live.AppNode, cfg Config) *Broadcaster {
	// The group-commit defaults are the configuration the benchmarks
	// measure: a user gets the fast path without setting a knob.
	const (
		defaultMaxEntries = 128
		defaultMaxBytes   = 256 << 10
		defaultAckEvery   = 16
	)
	if cfg.MaxBuffered <= 0 {
		cfg.MaxBuffered = 4096
	}
	if cfg.Batch.MaxEntries == 0 {
		cfg.Batch.MaxEntries = defaultMaxEntries
	}
	if cfg.Batch.MaxBytes <= 0 {
		cfg.Batch.MaxBytes = defaultMaxBytes
	}
	if cfg.Ack.Every == 0 {
		cfg.Ack.Every = defaultAckEvery
	}
	b := &Broadcaster{
		n:        n,
		cfg:      cfg,
		self:     n.ID(),
		pending:  make(map[uint64]Entry),
		applied:  make(map[ids.ProcID]uint64),
		future:   make(map[uint64][]futureMsg),
		inflight: make(map[uint64]*pubState),
		acks:     make(map[ids.ProcID]uint64),
		flushes:  make(map[ids.ProcID]Flush),
	}
	b.endBurstFn = b.endBurst
	return b
}

// StatsRef exposes the node's counters.
func (b *Broadcaster) StatsRef() *Stats { return &b.stats }

// Propose submits body for total-order delivery; safe from any
// goroutine. done runs on the node's event loop once the outcome is
// known: err == nil only after the message is *stable* — processed into
// the order by every member of some installed view — which is the moment
// no crash or view change can lose it (the bench acks clients here).
// done never fires if the node itself dies; callers own that timeout.
func (b *Broadcaster) Propose(body []byte, done func(pubID uint64, err error)) {
	b.n.Run(func() {
		b.nextPub++
		id := b.nextPub
		p := &pubState{body: body, done: done}
		b.inflight[id] = p
		if b.installed && b.synced {
			b.enqueuePub(id, len(body))
		}
		// Not synced yet: afterSync's resubmission sweep picks it up.
	})
}

// Fence runs fn on the event loop once every order position this member
// has processed so far is *stable* — processed by every member of an
// installed view. This is the read fence behind stability-fenced local
// reads: a value captured now may include entries not yet stable, so the
// caller captures first and completes at release, which places the read's
// linearization point at the capture position without ever exposing state
// a crash could still lose. Must be called on the event loop. If a view
// change intervenes, the fence re-targets to the new view's covering
// prefix (a superset of everything captured) and releases at its
// stability.
func (b *Broadcaster) Fence(fn func()) {
	b.stats.Fences.Add(1)
	if b.installed && b.synced && b.stable >= b.next-1 {
		b.stats.FencesImmediate.Add(1)
		fn()
		return
	}
	seq := fenceResync
	if b.installed && b.synced {
		seq = b.next - 1
	}
	b.fences = append(b.fences, fence{seq: seq, fn: fn})
}

// enqueuePub queues one proposal for the next group-commit flush. The
// flush is pipeline-paced, the classic group-commit discipline: ship
// immediately when this origin has nothing in flight (the batch is
// whatever accumulated — size 1 at low load, so an idle group pays no
// batching latency), let an in-flight batch absorb new arrivals, and
// flush early when a size cap trips. The sequencer slots its own pubs the
// moment they flush, so it has no pipeline to pace by: its queue rides
// along behind remote batches (flushOwnAlong) or leaves at the end of the
// burst.
//
// A non-sequencer needs no fallback: its queue waits only on its own pubs
// coming home with slots, and within one view every shipped pub comes
// home (the sequencer slots each fresh pub exactly once). Pipeline state
// is lost only to a view change, and HandleInstall resets pubsUnseqd
// while afterSync resubmits and re-flushes the queue.
func (b *Broadcaster) enqueuePub(id uint64, size int) {
	b.pubQueue = append(b.pubQueue, id)
	b.pubQueueBytes += size
	if (!b.isSeq && b.pubsUnseqd == 0) ||
		len(b.pubQueue) >= b.cfg.Batch.MaxEntries || b.pubQueueBytes >= b.cfg.Batch.MaxBytes {
		b.flushPubs()
		return
	}
	if b.isSeq {
		b.armFlush()
	}
}

// armFlush schedules endBurst behind every envelope already queued on
// this node's event loop. The loop drains its whole mailbox per wake, so
// at low load the flush runs at once, and under load it runs after the
// burst, coalescing everything the burst produced.
func (b *Broadcaster) armFlush() {
	if !b.burstArmed {
		b.burstArmed = true
		b.n.Run(b.endBurstFn)
	}
}

// endBurst is the end-of-burst flush: the sequencer ships its own queued
// pubs (carrying any dirty frontier) and then a frontier no SeqdBatch
// carried; a member sends its cumulative ack for a partial ack window.
func (b *Broadcaster) endBurst() {
	b.burstArmed = false
	if !b.installed || !b.synced {
		return // the view changed under the burst; the sync re-flushes
	}
	if !b.isSeq {
		if b.ackLast < b.next-1 {
			b.sendAck()
		}
		return
	}
	b.flushOwnAlong()
	if b.stableDirty {
		b.stableDirty = false
		b.broadcastStable()
	}
}

// flushPubs drains the origin's queue into one PubBatch (or sequences it
// directly when this node is the sequencer). Queue entries that completed
// or were assigned a slot while queued are skipped.
func (b *Broadcaster) flushPubs() {
	if len(b.pubQueue) == 0 || !b.installed || !b.synced {
		return
	}
	items := make([]PubItem, 0, len(b.pubQueue))
	for _, id := range b.pubQueue {
		p, ok := b.inflight[id]
		if !ok || p.seq != 0 {
			continue
		}
		items = append(items, PubItem{PubID: id, Body: p.body})
	}
	b.pubQueue = b.pubQueue[:0]
	b.pubQueueBytes = 0
	if len(items) == 0 {
		return
	}
	b.stats.PubBatches.Add(1)
	if b.isSeq {
		b.sequenceBatch(b.self, items)
		return
	}
	b.pubsUnseqd += len(items)
	b.n.Send(b.seqID, PubBatch{Origin: b.self, Pubs: items})
}

// --- live.AppHook ------------------------------------------------------------

// HandleApp routes one received broadcast payload (event loop).
func (b *Broadcaster) HandleApp(from ids.ProcID, payload any) {
	switch m := payload.(type) {
	case PubBatch:
		b.onPubBatch(m)
	case SeqdBatch:
		if b.route(m.Ver, from, payload) {
			b.onSeqdBatch(m)
		}
	case AckSeq:
		if b.route(m.Ver, from, payload) {
			b.onAckSeq(from, m)
		}
	case Stable:
		if b.route(m.Ver, from, payload) {
			b.onStable(m)
		}
	case Flush:
		if b.route(m.Ver, from, payload) {
			b.onFlush(from, m)
		}
	case ViewSync:
		if b.route(m.Ver, from, payload) {
			b.onViewSync(m)
		}
	}
}

// route files a view-tagged payload: current view → handle now (true);
// future view → park in the view-change buffer; past view → drop. The
// buffer preserves arrival order per view, so per-channel FIFO survives
// parking (a ViewSync always replays before the SeqdBatches behind it).
func (b *Broadcaster) route(ver uint64, from ids.ProcID, payload any) bool {
	if b.installed && ver == b.ver {
		return true
	}
	if !b.installed || ver > b.ver {
		if b.futureN >= b.cfg.MaxBuffered {
			// Farthest-future first. Rejecting the *incoming* frame
			// regardless of version let parked far-future junk starve a
			// near-future view's ViewSync/flush traffic during a churn
			// storm — exactly the frames the next install needs to
			// replay. When the incoming frame is nearer than the
			// farthest parked view, evict one frame from that view
			// instead (its newest, preserving the survivors' FIFO
			// order); otherwise the incoming frame is the junk.
			far := b.farthestFuture()
			if far <= ver {
				b.stats.DroppedOverflow.Add(1)
				b.noteOverflow(ver)
				return false
			}
			q := b.future[far]
			if len(q) == 1 {
				delete(b.future, far)
			} else {
				b.future[far] = q[:len(q)-1]
			}
			b.futureN--
			b.stats.DroppedOverflow.Add(1)
			b.noteOverflow(far)
		}
		b.future[ver] = append(b.future[ver], futureMsg{from: from, payload: payload})
		b.futureN++
		b.stats.BufferedFuture.Add(1)
		return false
	}
	b.stats.DroppedStale.Add(1)
	return false
}

// farthestFuture returns the highest view version currently parked, or 0
// when the buffer is empty. Only called on the overflow path, so the
// linear scan over distinct parked versions is off the hot path.
func (b *Broadcaster) farthestFuture() uint64 {
	var far uint64
	for ver := range b.future {
		if ver > far {
			far = ver
		}
	}
	return far
}

// noteOverflow buckets an overflow drop by the dropped frame's view
// distance from the current view (1, 2, 3, ≥4; pre-install drops count
// as distance 1).
func (b *Broadcaster) noteOverflow(ver uint64) {
	d := uint64(1)
	if b.installed && ver > b.ver {
		d = ver - b.ver
	}
	i := int(d - 1)
	if i > len(b.stats.OverflowDist)-1 {
		i = len(b.stats.OverflowDist) - 1
	}
	b.stats.OverflowDist[i].Add(1)
}

// HandleInstall opens a new view (event loop): reset per-view state,
// offer this member's retained log to the new sequencer (the flush
// barrier), and replay anything parked for this version.
func (b *Broadcaster) HandleInstall(ver member.Version, members []ids.ProcID) {
	v := uint64(ver)
	b.installed = true
	b.ver = v
	b.members = append([]ids.ProcID(nil), members...)
	b.memberSet = ids.NewSet(members...)
	b.seqID = b.members[0]
	b.isSeq = b.seqID == b.self
	b.synced = false
	b.pending = make(map[uint64]Entry)
	b.preSync = nil
	if !b.isSeq {
		b.pubHold = nil // origins resubmit below; held pubs are stale
	}
	for _, p := range b.inflight {
		p.seq = 0 // slots are per-view; the sync re-assigns or resubmits
	}
	b.acks = make(map[ids.ProcID]uint64)
	b.flushes = make(map[ids.ProcID]Flush)

	// Group-commit state is per-view: queued pubs resubmit via afterSync,
	// pending acks and frontier piggybacks are meaningless under the new
	// version, and fences re-target once the new order is open.
	b.pubQueue = b.pubQueue[:0]
	b.pubQueueBytes = 0
	b.pubsUnseqd = 0
	b.ackLast = 0
	b.stableDirty = false
	for i := range b.fences {
		b.fences[i].seq = fenceResync
	}

	f := Flush{
		Ver:     v,
		Applied: b.appliedList(),
		Tail:    append([]Entry(nil), b.log...),
		Joining: !b.everSynced,
	}
	if b.isSeq {
		b.onFlush(b.self, f)
	} else {
		b.n.Send(b.seqID, f)
	}
	b.drainFuture(v)
}

// drainFuture replays parked messages for every version ≤ v, in arrival
// order; route re-files or drops them against the now-current view.
func (b *Broadcaster) drainFuture(v uint64) {
	vers := make([]uint64, 0, len(b.future))
	for ver := range b.future {
		if ver <= v {
			vers = append(vers, ver)
		}
	}
	sort.Slice(vers, func(i, j int) bool { return vers[i] < vers[j] })
	for _, ver := range vers {
		msgs := b.future[ver]
		delete(b.future, ver)
		b.futureN -= len(msgs)
		for _, fm := range msgs {
			b.HandleApp(fm.from, fm.payload)
		}
	}
}

// --- order processing --------------------------------------------------------

// onSeqdBatch files one contiguous slot range of the current view's
// order, acks the whole range at most once, then folds in the piggybacked
// stability frontier.
func (b *Broadcaster) onSeqdBatch(m SeqdBatch) {
	if !b.synced {
		b.preSync = append(b.preSync, futureMsg{payload: m})
		return
	}
	for i, it := range m.Entries {
		b.processEntry(Entry{Ver: m.Ver, Seq: m.FirstSeq + uint64(i), Origin: it.Origin, PubID: it.PubID, Body: it.Body})
	}
	if !b.isSeq {
		b.maybeAck()
	}
	if m.Stable > b.stable {
		b.setStable(m.Stable)
	}
}

// maybeAck implements ack coalescing: send the cumulative ack once Every
// deliveries are pending, otherwise at the end of the burst. With Every ≤
// 1 every delivery acks immediately.
func (b *Broadcaster) maybeAck() {
	if b.ackLast >= b.next-1 {
		return
	}
	if b.cfg.Ack.Every <= 1 || b.next-1-b.ackLast >= uint64(b.cfg.Ack.Every) {
		b.sendAck()
		return
	}
	b.stats.AcksSuppressed.Add(1)
	b.armFlush()
}

func (b *Broadcaster) sendAck() {
	b.ackLast = b.next - 1
	b.stats.AcksSent.Add(1)
	b.n.Send(b.seqID, AckSeq{Ver: b.ver, Seq: b.ackLast})
}

// processEntry files one entry of the current view's order, applying the
// contiguous prefix.
func (b *Broadcaster) processEntry(en Entry) {
	if en.Seq != b.next {
		if en.Seq > b.next {
			b.pending[en.Seq] = en
		}
		return
	}
	b.applyEntry(en)
	for len(b.pending) > 0 {
		nxt, ok := b.pending[b.next]
		if !ok {
			return
		}
		delete(b.pending, b.next)
		b.applyEntry(nxt)
	}
}

// applyEntry processes order position en.Seq: it always joins the
// retained log (it is part of the view's order whether or not this member
// applies it), and reaches Deliver only if this origin frontier has not
// seen it — the dedup that makes redelivery across view changes
// exactly-once.
func (b *Broadcaster) applyEntry(en Entry) {
	b.next = en.Seq + 1
	b.log = append(b.log, en)
	b.stats.Processed.Add(1)
	applied := en.PubID > b.applied[en.Origin]
	m := Msg{Ver: member.Version(en.Ver), Seq: en.Seq, Origin: en.Origin, PubID: en.PubID, Body: en.Body}
	if applied {
		b.applied[en.Origin] = en.PubID
		b.stats.Applied.Add(1)
		if b.cfg.Deliver != nil {
			b.cfg.Deliver(m)
		}
	}
	if b.cfg.Observe != nil {
		b.cfg.Observe(m, applied)
	}
	if en.Origin == b.self {
		if p, ok := b.inflight[en.PubID]; ok {
			if p.seq == 0 && b.pubsUnseqd > 0 {
				// One in-flight pub came home with its slot; once the whole
				// pipeline drains, ship the batch that accumulated meanwhile.
				if b.pubsUnseqd--; b.pubsUnseqd == 0 && len(b.pubQueue) > 0 {
					b.flushPubs()
				}
			}
			p.seq = en.Seq
		}
	}
}

func (b *Broadcaster) onStable(m Stable) {
	if !b.synced {
		b.preSync = append(b.preSync, futureMsg{payload: m})
		return
	}
	if m.Seq > b.stable {
		b.setStable(m.Seq)
	}
}

// setStable advances the stability frontier: prune the retained log,
// complete the client acks that were waiting on durability, and release
// the read fences the frontier now covers.
func (b *Broadcaster) setStable(s uint64) {
	b.stable = s
	i := 0
	for i < len(b.log) && b.log[i].Seq <= s {
		i++
	}
	// Prune in place: copy the survivors down and zero the vacated tail so
	// the pruned bodies can be collected.
	kept := copy(b.log, b.log[i:])
	clear(b.log[kept:])
	b.log = b.log[:kept]
	for id, p := range b.inflight {
		if p.seq != 0 && p.seq <= s {
			delete(b.inflight, id)
			if p.done != nil {
				p.done(id, nil)
			}
		}
	}
	if len(b.fences) > 0 {
		keep := b.fences[:0]
		for _, f := range b.fences {
			if f.seq <= s {
				f.fn()
			} else {
				keep = append(keep, f)
			}
		}
		b.fences = keep
	}
}

// --- sequencer ---------------------------------------------------------------

func (b *Broadcaster) onPubBatch(pb PubBatch) {
	if b.installed && b.isSeq && b.synced {
		b.sequenceBatch(pb.Origin, pb.Pubs)
		b.flushOwnAlong()
		return
	}
	for _, it := range pb.Pubs {
		b.holdPub(heldPub{origin: pb.Origin, item: it})
	}
}

// flushOwnAlong paces the sequencer's own group-commit queue off the
// traffic it sequences for everyone else: whenever a remote batch comes
// through, the queued local pubs ride out right behind it instead of
// waiting for the end of the burst.
func (b *Broadcaster) flushOwnAlong() {
	if len(b.pubQueue) > 0 {
		b.flushPubs()
	}
}

// holdPub parks a pub: this node may be (or become) the sequencer
// mid-sync. Pubs held across a view change where it is not are discarded
// — origins resubmit on their own installs.
func (b *Broadcaster) holdPub(p heldPub) {
	if len(b.pubHold) < b.cfg.MaxBuffered {
		b.pubHold = append(b.pubHold, p)
	} else {
		b.stats.DroppedOverflow.Add(1)
	}
}

// sequenceBatch is the group-commit sequencing step: filter duplicates,
// assign one contiguous slot range to everything fresh, and fan the range
// out as a single SeqdBatch carrying the current stability frontier.
func (b *Broadcaster) sequenceBatch(origin ids.ProcID, items []PubItem) {
	// Items arrive in PubID order (FIFO channels, sorted resubmission),
	// so each origin's sequenced set is always a PubID prefix: one
	// frontier comparison per item is a complete duplicate filter, and
	// filtering first keeps the assigned range contiguous.
	keep := 0
	for _, it := range items {
		if it.PubID > b.applied[origin] {
			items[keep] = it
			keep++
		}
	}
	if keep == 0 {
		return
	}
	first := b.seqNext
	ents := make([]SeqdItem, keep)
	for i, it := range items[:keep] {
		ents[i] = SeqdItem{Origin: origin, PubID: it.PubID, Body: it.Body}
	}
	b.seqNext += uint64(keep)
	b.stats.Sequenced.Add(uint64(keep))
	b.stats.SeqdBatches.Add(1)
	b.stats.BatchHist[histBucket(keep)].Add(1)
	if b.stableDirty {
		b.stableDirty = false
		b.stats.StablePiggybacked.Add(1)
	}
	sb := SeqdBatch{Ver: b.ver, FirstSeq: first, Stable: b.stable, Entries: ents}
	for _, m := range b.members {
		if m != b.self {
			b.n.Send(m, sb)
		}
	}
	for i, it := range ents {
		b.processEntry(Entry{Ver: b.ver, Seq: first + uint64(i), Origin: origin, PubID: it.PubID, Body: it.Body})
	}
	b.noteAck(b.self, b.next-1)
}

func (b *Broadcaster) onAckSeq(from ids.ProcID, m AckSeq) {
	if !b.isSeq || !b.synced || !b.memberSet.Has(from) {
		return
	}
	b.noteAck(from, m.Seq)
}

func (b *Broadcaster) noteAck(from ids.ProcID, s uint64) {
	if s > b.acks[from] {
		b.acks[from] = s
	}
	b.advanceStable()
}

// advanceStable recomputes the stability frontier: the minimum contiguous
// ack over every member of the view. Crossing it triggers the Stable
// fan-out that lets everyone prune and ack — piggybacked on the next
// SeqdBatch, or sent alone at the end of the burst when no SeqdBatch
// carried it.
func (b *Broadcaster) advanceStable() {
	min := ^uint64(0)
	for _, m := range b.members {
		if a := b.acks[m]; a < min {
			min = a
		}
	}
	if min == ^uint64(0) || min <= b.stable {
		return
	}
	b.setStable(min)
	b.stableDirty = true
	b.armFlush()
}

func (b *Broadcaster) broadcastStable() {
	b.stats.StableBroadcasts.Add(1)
	for _, m := range b.members {
		if m != b.self {
			b.n.Send(m, Stable{Ver: b.ver, Seq: b.stable})
		}
	}
}

// --- flush + state transfer --------------------------------------------------

func (b *Broadcaster) onFlush(from ids.ProcID, f Flush) {
	if !b.isSeq || b.synced || !b.memberSet.Has(from) {
		return
	}
	b.flushes[from] = f
	if len(b.flushes) == len(b.members) {
		b.buildSync()
	}
}

// buildSync is the sequencer's install step, run once every member's
// flush is in: union the tails, re-sequence them as the new view's
// opening order, adopt it locally, and fan out the ViewSync that opens
// the view for everyone else.
func (b *Broadcaster) buildSync() {
	type key struct {
		o  ids.ProcID
		id uint64
	}
	floor := make(map[ids.ProcID]uint64)
	best := make(map[key]Entry)
	anyJoin := false
	for _, f := range b.flushes {
		if f.Joining {
			anyJoin = true
		}
		for _, a := range f.Applied {
			if a.Max > floor[a.Origin] {
				floor[a.Origin] = a.Max
			}
		}
		for _, en := range f.Tail {
			k := key{en.Origin, en.PubID}
			// Keep the occurrence sequenced latest: a member that synced
			// a later view holds a superset of every earlier tail, and
			// its ordering is the authoritative extension.
			if cur, ok := best[k]; !ok || en.Ver > cur.Ver || (en.Ver == cur.Ver && en.Seq > cur.Seq) {
				best[k] = en
			}
		}
	}
	ents := make([]Entry, 0, len(best))
	for _, en := range best {
		ents = append(ents, en)
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].Ver != ents[j].Ver {
			return ents[i].Ver < ents[j].Ver
		}
		return ents[i].Seq < ents[j].Seq
	})
	order := make([]Entry, len(ents))
	for i, en := range ents {
		en.Ver, en.Seq = b.ver, uint64(i+1)
		order[i] = en
	}

	// Adopt the order locally: catch up on whatever this node had not
	// applied, then fold in the flushed frontiers (they only describe
	// stable history every survivor — including this node — already holds).
	b.next = 1
	b.log = nil
	b.stable = 0
	b.pending = make(map[uint64]Entry)
	b.synced = true
	b.everSynced = true
	b.stats.Syncs.Add(1)
	for _, en := range order {
		b.processEntry(en)
	}
	for o, mx := range floor {
		if mx > b.applied[o] {
			b.applied[o] = mx
		}
	}

	vs := ViewSync{Ver: b.ver, Applied: b.appliedList(), Entries: order}
	if anyJoin && b.cfg.Snapshot != nil {
		vs.Snapshot = b.cfg.Snapshot()
		vs.HasSnap = true
	}
	for _, m := range b.members {
		if m != b.self {
			b.n.Send(m, vs)
		}
	}
	b.seqNext = uint64(len(order)) + 1
	b.acks = map[ids.ProcID]uint64{b.self: b.next - 1}
	b.afterSync()
	b.advanceStable() // a single-member view is stable immediately
}

func (b *Broadcaster) onViewSync(m ViewSync) {
	if b.isSeq || b.synced {
		return
	}
	b.next = 1
	b.log = nil
	b.stable = 0
	b.pending = make(map[uint64]Entry)
	b.synced = true
	wasJoiner := !b.everSynced
	b.everSynced = true
	b.stats.Syncs.Add(1)
	if wasJoiner {
		// The snapshot already contains every entry the frontiers cover,
		// so adopting them first makes the replay below skip exactly the
		// entries the snapshot holds.
		if m.HasSnap && b.cfg.Restore != nil {
			b.cfg.Restore(m.Snapshot)
		}
		b.applied = appliedMap(m.Applied)
	}
	for _, en := range m.Entries {
		b.processEntry(en)
	}
	// Fold in the stable-history floor only AFTER replaying the order:
	// merging first would mark the catch-up entries already-seen and a
	// survivor would silently skip applying them.
	for _, a := range m.Applied {
		if a.Max > b.applied[a.Origin] {
			b.applied[a.Origin] = a.Max
		}
	}
	b.afterSync()
	b.ackLast = b.next - 1
	b.stats.AcksSent.Add(1)
	b.n.Send(b.seqID, AckSeq{Ver: b.ver, Seq: b.ackLast})
}

// afterSync resolves this origin's in-flight pubs against the freshly
// opened order: re-assigned ones wait for stability, stable-historical
// ones complete now, lost ones resubmit — the at-least-once loop that,
// with the sequencer's duplicate filter, yields exactly-once. It then
// re-targets read fences to the new view's covering prefix and flushes
// the group-commit queue the resubmissions refilled.
func (b *Broadcaster) afterSync() {
	ordered := make([]uint64, 0, len(b.inflight))
	for id := range b.inflight {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	selfFloor := b.applied[b.self]
	for _, id := range ordered {
		p := b.inflight[id]
		switch {
		case p.seq != 0:
			// Carried into this view's order; completes at stability.
		case id <= selfFloor:
			// Below the applied floor yet absent from the order: it is
			// stable history from an earlier view — already durable.
			delete(b.inflight, id)
			if p.done != nil {
				p.done(id, nil)
			}
		default:
			b.stats.Resubmits.Add(1)
			b.enqueuePub(id, len(p.body))
		}
	}
	if b.isSeq {
		hold := b.pubHold
		b.pubHold = nil
		for _, h := range hold {
			b.sequenceBatch(h.origin, []PubItem{h.item})
		}
	}
	pre := b.preSync
	b.preSync = nil
	for _, fm := range pre {
		b.HandleApp(fm.from, fm.payload)
	}
	// Fences registered before (or during) the change now cover at most
	// the new view's processed prefix: re-target and release what the
	// (reset) frontier already covers.
	if len(b.fences) > 0 {
		target := b.next - 1
		if b.stable >= target {
			fences := b.fences
			b.fences = nil
			for _, f := range fences {
				f.fn()
			}
		} else {
			for i := range b.fences {
				b.fences[i].seq = target
			}
		}
	}
	b.flushPubs()
}

func (b *Broadcaster) appliedList() []Applied {
	out := make([]Applied, 0, len(b.applied))
	for o, mx := range b.applied {
		out = append(out, Applied{Origin: o, Max: mx})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin.Less(out[j].Origin) })
	return out
}

func appliedMap(list []Applied) map[ids.ProcID]uint64 {
	m := make(map[ids.ProcID]uint64, len(list))
	for _, a := range list {
		if a.Max > m[a.Origin] {
			m[a.Origin] = a.Max
		}
	}
	return m
}
