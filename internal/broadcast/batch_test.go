package broadcast

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// syncAsMember drives b (a non-sequencer) through install + ViewSync so
// the view's order is open. Returns the sequencer's id.
func syncAsMember(b *Broadcaster, n interface{ takeSent() []fakeSend }, ver uint64) ids.ProcID {
	seq := proc("p1")
	b.HandleInstall(member.Version(ver), []ids.ProcID{seq, b.self})
	b.HandleApp(seq, ViewSync{Ver: ver, HasSnap: true})
	n.takeSent()
	return seq
}

func countAcks(sent []fakeSend) (acks int, last uint64) {
	for _, s := range sent {
		if a, ok := s.payload.(AckSeq); ok {
			acks++
			last = a.Seq
		}
	}
	return
}

// TestAckCoalescing pins ack coalescing at burst granularity: with
// AckConfig{Every: B}, deliveries under the count cap are acked once, by
// one cumulative AckSeq at the end of the event-loop burst that delivered
// them; a burst that fills the window sends the cap ack inside the burst
// and nothing more at its end.
func TestAckCoalescing(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{Ack: AckConfig{Every: 16}})
	seq := syncAsMember(b, fn, 0)
	px := proc("p9")

	// One burst of three deliveries: under the cap, nothing is acked
	// while the burst dispatches, and the flush is armed exactly once.
	for i := uint64(1); i <= 3; i++ {
		b.HandleApp(seq, seqd(entry(0, i, px, i)))
	}
	if acks, _ := countAcks(fn.takeSent()); acks != 0 {
		t.Fatalf("sent %d acks inside the burst, want 0 (coalesced)", acks)
	}
	if got := b.stats.AcksSuppressed.Load(); got != 3 {
		t.Fatalf("AcksSuppressed = %d, want 3", got)
	}
	if len(fn.runq) != 1 {
		t.Fatalf("burst armed %d end-of-burst flushes, want 1", len(fn.runq))
	}
	// The end of the burst sends exactly one cumulative ack.
	fn.endBurst()
	if acks, last := countAcks(fn.takeSent()); acks != 1 || last != 3 {
		t.Fatalf("end of burst sent %d acks (last seq %d), want exactly 1 covering 3", acks, last)
	}

	// A burst of 16 fills the window: the cap ack leaves inside the burst,
	// and the end of the burst has nothing left to ack.
	for i := uint64(4); i < 20; i++ {
		b.HandleApp(seq, seqd(entry(0, i, px, i)))
	}
	if acks, last := countAcks(fn.takeSent()); acks != 1 || last != 19 {
		t.Fatalf("16-entry burst sent %d acks (last seq %d), want exactly 1 covering 19", acks, last)
	}
	fn.endBurst()
	if acks, _ := countAcks(fn.takeSent()); acks != 0 {
		t.Fatalf("end of a capped burst sent %d more acks, want 0", acks)
	}
}

// pubBatches filters a send capture down to its PubBatch frames.
func pubBatches(sent []fakeSend) []PubBatch {
	var out []PubBatch
	for _, s := range sent {
		if pb, ok := s.payload.(PubBatch); ok {
			out = append(out, pb)
		}
	}
	return out
}

// TestGroupCommitOriginBatching pins the pipeline-paced flush discipline:
// an idle origin ships a proposal immediately (no batching latency on a
// quiet group), proposals arriving while a batch is in flight accumulate
// and leave as ONE PubBatch when the pipeline drains, the entry cap
// flushes early, and a non-sequencer arms no end-of-burst flush — its
// stragglers leave with the next pipeline drain.
func TestGroupCommitOriginBatching(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{Batch: BatchConfig{MaxEntries: 4}})
	seq := syncAsMember(b, fn, 0)

	// Idle pipeline: the first proposal leaves at once, a batch of one.
	b.Propose([]byte{0}, nil)
	fn.endBurst()
	sent := fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("idle-pipeline proposal sent %d frames, want 1 PubBatch", len(sent))
	}
	pb, ok := sent[0].payload.(PubBatch)
	if !ok || sent[0].to != seq {
		t.Fatalf("idle flush sent %T to %v, want PubBatch to the sequencer", sent[0].payload, sent[0].to)
	}
	if len(pb.Pubs) != 1 || pb.Pubs[0].PubID != 1 || pb.Origin != b.self {
		t.Fatalf("idle-pipeline PubBatch = %+v, want pub 1 from self", pb)
	}

	// While that batch is in flight, new proposals accumulate silently,
	// through the end of their burst.
	for i := 1; i < 4; i++ {
		b.Propose([]byte{byte(i)}, nil)
	}
	fn.endBurst()
	if got := pubBatches(fn.takeSent()); len(got) != 0 {
		t.Fatalf("proposals escaped a busy pipeline: %v", got)
	}

	// The in-flight pub's slot coming home drains the pipeline: the
	// accumulation leaves as one PubBatch in PubID order.
	b.HandleApp(seq, SeqdBatch{Ver: 0, FirstSeq: 1,
		Entries: []SeqdItem{{Origin: b.self, PubID: 1, Body: []byte{0}}}})
	got := pubBatches(fn.takeSent())
	if len(got) != 1 {
		t.Fatalf("pipeline drain sent %d PubBatches, want 1", len(got))
	}
	if len(got[0].Pubs) != 3 {
		t.Fatalf("drained PubBatch carries %d pubs, want 3", len(got[0].Pubs))
	}
	for i, it := range got[0].Pubs {
		if it.PubID != uint64(i+2) {
			t.Fatalf("batch item %d has PubID %d, want %d (PubID order)", i, it.PubID, i+2)
		}
	}

	// Hitting the entry cap flushes immediately, busy pipeline or not.
	for i := 0; i < 4; i++ {
		b.Propose([]byte{byte(i)}, nil)
	}
	fn.endBurst()
	got = pubBatches(fn.takeSent())
	if len(got) != 1 || len(got[0].Pubs) != 4 {
		t.Fatalf("cap-triggered flush = %v, want one PubBatch of 4", got)
	}

	// A sub-cap straggler behind a busy pipeline outlives its burst: a
	// non-sequencer arms no flush, it waits for the pipeline.
	b.Propose([]byte{9}, nil)
	fn.endBurst()
	if got := pubBatches(fn.takeSent()); len(got) != 0 {
		t.Fatalf("straggler escaped a busy pipeline: %v", got)
	}
	if len(fn.runq) != 0 {
		t.Fatalf("non-sequencer armed %d end-of-burst flushes", len(fn.runq))
	}
	// The seven in-flight pubs coming home drain the pipeline, and the
	// straggler leaves behind them.
	var home []SeqdItem
	for id := uint64(2); id <= 8; id++ {
		home = append(home, SeqdItem{Origin: b.self, PubID: id, Body: []byte{0}})
	}
	b.HandleApp(seq, SeqdBatch{Ver: 0, FirstSeq: 2, Entries: home})
	got = pubBatches(fn.takeSent())
	if len(got) != 1 || len(got[0].Pubs) != 1 || got[0].Pubs[0].PubID != 9 {
		t.Fatalf("pipeline drain = %v, want one PubBatch carrying pub 9", got)
	}
	if stats := b.stats.PubBatches.Load(); stats != 4 {
		t.Fatalf("PubBatches = %d, want 4", stats)
	}
}

// syncAsSequencer drives b (the view's coordinator) through install and
// the flush barrier with one other member, so it is the open sequencer.
func syncAsSequencer(t *testing.T, b *Broadcaster, n interface{ takeSent() []fakeSend }, ver uint64, other ids.ProcID) {
	t.Helper()
	b.HandleInstall(member.Version(ver), []ids.ProcID{b.self, other})
	b.HandleApp(other, Flush{Ver: ver, Joining: true})
	for _, s := range n.takeSent() {
		if _, ok := s.payload.(ViewSync); ok {
			return
		}
	}
	t.Fatal("sequencer did not fan out ViewSync after the flush barrier")
}

// TestGroupCommitSequencerRangesAndPiggyback: the sequencer assigns one
// contiguous slot range per incoming batch, fans it out as a single
// SeqdBatch, and carries a stability frontier that advanced in the burst
// on the burst's next SeqdBatch; only a frontier no batch carried is
// broadcast alone, at the end of the burst. Its own proposals leave at the
// end of their burst as one range.
func TestGroupCommitSequencerRangesAndPiggyback(t *testing.T) {
	fn := &fakeNode{id: proc("p1")}
	b := New(fn, Config{Batch: BatchConfig{MaxEntries: 8}})
	p2 := proc("p2")
	syncAsSequencer(t, b, fn, 0, p2)

	items := []PubItem{{PubID: 1, Body: []byte("a")}, {PubID: 2, Body: []byte("b")}, {PubID: 3, Body: []byte("c")}}
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: items})
	sent := fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("sequencing a batch sent %d frames, want 1 SeqdBatch", len(sent))
	}
	sb := sent[0].payload.(SeqdBatch)
	if sb.FirstSeq != 1 || len(sb.Entries) != 3 || sb.Stable != 0 {
		t.Fatalf("SeqdBatch = %+v, want contiguous range [1,4) with stable 0", sb)
	}

	// p2 acks the range; the frontier advances but no Stable frame goes
	// out — it is marked for piggyback on the burst's next SeqdBatch.
	b.HandleApp(p2, AckSeq{Ver: 0, Seq: 3})
	if sent := fn.takeSent(); len(sent) != 0 {
		t.Fatalf("frontier advance broadcast %v immediately; batching must piggyback", sent)
	}
	if b.stable != 3 {
		t.Fatalf("sequencer stable = %d, want 3", b.stable)
	}

	// Later in the same burst, the next batch carries it.
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: []PubItem{{PubID: 4, Body: []byte("d")}}})
	sent = fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("second batch sent %d frames, want 1", len(sent))
	}
	sb = sent[0].payload.(SeqdBatch)
	if sb.FirstSeq != 4 || sb.Stable != 3 {
		t.Fatalf("second SeqdBatch = %+v, want FirstSeq 4 carrying stable 3", sb)
	}
	if got := b.stats.StablePiggybacked.Load(); got != 1 {
		t.Fatalf("StablePiggybacked = %d, want 1", got)
	}
	fn.endBurst()
	if sent := fn.takeSent(); len(sent) != 0 {
		t.Fatalf("end of burst re-sent a carried frontier: %v", sent)
	}

	// A burst whose frontier no batch carries broadcasts Stable alone at
	// its end, and not before.
	b.HandleApp(p2, AckSeq{Ver: 0, Seq: 4})
	if sent := fn.takeSent(); len(sent) != 0 {
		t.Fatal("stable broadcast before the end of the burst")
	}
	fn.endBurst()
	sent = fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("end of burst sent %d frames, want 1 Stable", len(sent))
	}
	if st := sent[0].payload.(Stable); st.Seq != 4 {
		t.Fatalf("end-of-burst Stable.Seq = %d, want 4", st.Seq)
	}
	if got := b.stats.StableBroadcasts.Load(); got != 1 {
		t.Fatalf("StableBroadcasts = %d, want 1", got)
	}

	// The sequencer's own proposals in one burst leave together at its
	// end: one SeqdBatch, one contiguous range.
	b.Propose([]byte("x"), nil)
	b.Propose([]byte("y"), nil)
	fn.endBurst()
	sent = fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("own proposals sent %d frames, want 1 SeqdBatch", len(sent))
	}
	if sb := sent[0].payload.(SeqdBatch); sb.FirstSeq != 5 || len(sb.Entries) != 2 || sb.Entries[0].Origin != b.self {
		t.Fatalf("own SeqdBatch = %+v, want own pubs at [5,7)", sb)
	}

	// Duplicate sequencing protection across batches: re-sending the
	// first batch (a resubmission race) sequences nothing.
	before := b.stats.Sequenced.Load()
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: items})
	if got := b.stats.Sequenced.Load(); got != before {
		t.Fatalf("duplicate batch re-sequenced %d entries", got-before)
	}
}

// TestStableAdvanceAllocatesNothing pins the in-place log prune: an ack
// that advances the sequencer's stability frontier allocates nothing.
func TestStableAdvanceAllocatesNothing(t *testing.T) {
	fn := &fakeNode{id: proc("p1")}
	b := New(fn, Config{Batch: BatchConfig{MaxEntries: 8}})
	p2 := proc("p2")
	syncAsSequencer(t, b, fn, 0, p2)
	const n = 200
	items := make([]PubItem, n)
	for i := range items {
		items[i] = PubItem{PubID: uint64(i + 1), Body: []byte{byte(i)}}
	}
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: items})

	var acked uint64
	allocs := testing.AllocsPerRun(100, func() {
		acked++
		b.onAckSeq(p2, AckSeq{Ver: 0, Seq: acked})
	})
	if allocs != 0 {
		t.Fatalf("a stability advance allocated %.1f times, want 0", allocs)
	}
	if b.stable != acked || len(b.log) != n-int(acked) {
		t.Fatalf("stable %d with %d retained, want %d with %d", b.stable, len(b.log), acked, n-int(acked))
	}
}

// TestBatchCapOneIsBatchOfOne pins the cap-1 wire: the same frames as any
// cap, one entry at a time — a PubBatch per proposal, a SeqdBatch per
// pub, and at AckConfig{Every: 1} an AckSeq per delivery. Stability
// piggybacks on the next SeqdBatch or leaves alone at the end of the
// burst.
func TestBatchCapOneIsBatchOfOne(t *testing.T) {
	cfg := Config{Batch: BatchConfig{MaxEntries: 1}, Ack: AckConfig{Every: 1}}
	// Origin side: each proposal leaves at once as its own PubBatch, busy
	// pipeline or not.
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, cfg)
	seq := syncAsMember(b, fn, 0)
	for i := 0; i < 3; i++ {
		b.Propose([]byte{byte(i)}, nil)
	}
	fn.endBurst()
	sent := fn.takeSent()
	if len(sent) != 3 {
		t.Fatalf("3 proposals sent %d frames, want 3 PubBatches", len(sent))
	}
	for i, s := range sent {
		if pb, ok := s.payload.(PubBatch); !ok || len(pb.Pubs) != 1 || pb.Pubs[0].PubID != uint64(i+1) {
			t.Fatalf("frame %d = %+v, want a PubBatch of pub %d alone", i, s.payload, i+1)
		}
	}
	// Delivery side: one AckSeq per delivery, immediately.
	px := proc("p9")
	b.HandleApp(seq, seqd(entry(0, 1, px, 1)))
	b.HandleApp(seq, seqd(entry(0, 2, px, 2)))
	if acks, last := countAcks(fn.takeSent()); acks != 2 || last != 2 {
		t.Fatalf("2 deliveries sent %d acks (last %d), want one per entry", acks, last)
	}
	if len(fn.runq) != 0 {
		t.Fatalf("member armed %d end-of-burst flushes", len(fn.runq))
	}

	// Sequencer side: each pub, remote or own, leaves as its own
	// SeqdBatch.
	sn := &fakeNode{id: proc("p1")}
	sq := New(sn, cfg)
	p2 := proc("p2")
	syncAsSequencer(t, sq, sn, 0, p2)
	sq.HandleApp(p2, PubBatch{Origin: p2, Pubs: []PubItem{{PubID: 1, Body: []byte("x")}}})
	sq.Propose([]byte("y"), nil)
	sq.Propose([]byte("z"), nil)
	sn.endBurst()
	sent = sn.takeSent()
	if len(sent) != 3 {
		t.Fatalf("sequencing three pubs sent %d frames, want 3 SeqdBatches", len(sent))
	}
	for i, s := range sent {
		if sb, ok := s.payload.(SeqdBatch); !ok || sb.FirstSeq != uint64(i+1) || len(sb.Entries) != 1 {
			t.Fatalf("frame %d = %+v, want a SeqdBatch of slot %d alone", i, s.payload, i+1)
		}
	}
	// An ack advances the frontier; the burst's next SeqdBatch carries it.
	sq.HandleApp(p2, AckSeq{Ver: 0, Seq: 1})
	sq.HandleApp(p2, PubBatch{Origin: p2, Pubs: []PubItem{{PubID: 2, Body: []byte("w")}}})
	sent = sn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("ack then pub sent %d frames, want 1 SeqdBatch", len(sent))
	}
	if sb, ok := sent[0].payload.(SeqdBatch); !ok || sb.FirstSeq != 4 || sb.Stable != 1 {
		t.Fatalf("frame = %+v, want a SeqdBatch at slot 4 carrying stable 1", sent[0].payload)
	}
	// A frontier no SeqdBatch carries leaves alone at the end of the burst.
	sq.HandleApp(p2, AckSeq{Ver: 0, Seq: 4})
	sn.endBurst()
	sent = sn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("end of burst sent %d frames, want 1 Stable", len(sent))
	}
	if st, ok := sent[0].payload.(Stable); !ok || st.Seq != 4 {
		t.Fatalf("frame = %+v, want Stable 4", sent[0].payload)
	}
	if got := sq.stats.BatchHist[0].Load(); got != 4 || sq.stats.SeqdBatches.Load() != 4 {
		t.Fatalf("%d of %d SeqdBatches had one entry, want all 4", got, sq.stats.SeqdBatches.Load())
	}
}

// TestFenceReleasesOnlyAtStability: a read fence registered while the
// processed prefix is unstable holds until the frontier covers it; with
// nothing unstable it releases immediately.
func TestFenceReleasesOnlyAtStability(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{})
	seq := syncAsMember(b, fn, 0)

	released := 0
	b.Fence(func() { released++ })
	if released != 1 {
		t.Fatal("fence over an empty (trivially stable) prefix must release immediately")
	}

	px := proc("p9")
	b.HandleApp(seq, seqd(entry(0, 1, px, 1)))
	b.Fence(func() { released++ })
	if released != 1 {
		t.Fatal("fence released while its prefix was unstable")
	}
	b.HandleApp(seq, Stable{Ver: 0, Seq: 1})
	if released != 2 {
		t.Fatal("fence not released when the frontier covered its prefix")
	}
}

// TestFenceRetargetsAcrossViewChange: a pending fence survives an
// install, re-targets to the new view's covering prefix, and releases at
// the new view's stability — never before.
func TestFenceRetargetsAcrossViewChange(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{})
	seq := syncAsMember(b, fn, 0)
	px := proc("p9")
	b.HandleApp(seq, seqd(entry(0, 1, px, 1)))

	released := 0
	b.Fence(func() { released++ })

	members := []ids.ProcID{seq, b.self}
	b.HandleInstall(1, members)
	if released != 0 {
		t.Fatal("fence released by the install itself")
	}
	// The new view re-sequences the entry; sync reopens the order.
	b.HandleApp(seq, ViewSync{Ver: 1, Entries: []Entry{entry(1, 1, px, 1)}})
	if released != 0 {
		t.Fatal("fence released before the re-sequenced prefix was stable")
	}
	b.HandleApp(seq, Stable{Ver: 1, Seq: 1})
	if released != 1 {
		t.Fatal("fence not released at the new view's stability")
	}
}

// --- cap 1 vs cap 4 equivalence ---------------------------------------------

// simNet wires Broadcasters through in-memory inboxes under a seeded
// scheduler: one envelope at a time, the node chosen by the rng. An
// inbox models the live mailbox: frames from peers and Run tasks share
// one FIFO, so a Run posted during dispatch runs after everything already
// queued. Deterministic for a given seed, so the cap-1 and cap-4 arms
// replay the identical script.
type simNet struct {
	rng   *rand.Rand
	order []ids.ProcID
	nodes map[ids.ProcID]*simNode
}

type simNode struct {
	net   *simNet
	id    ids.ProcID
	b     *Broadcaster
	inbox []simEnvelope
	dead  bool

	applied []CmdKey
	acked   map[uint64]bool // own pubIDs acked at stability
}

// simEnvelope is one inbox entry: a frame from a peer, or a posted task.
type simEnvelope struct {
	from    ids.ProcID
	payload any
	fn      func()
}

// CmdKey is a command's global identity in the sim.
type CmdKey struct {
	Origin ids.ProcID
	PubID  uint64
}

func (n *simNode) ID() ids.ProcID { return n.id }
func (n *simNode) Send(to ids.ProcID, payload any) {
	if dst, ok := n.net.nodes[to]; ok && !dst.dead {
		dst.inbox = append(dst.inbox, simEnvelope{from: n.id, payload: payload})
	}
}
func (n *simNode) Run(fn func()) {
	if !n.dead {
		n.inbox = append(n.inbox, simEnvelope{fn: fn})
	}
}

func newSimNet(seed int64, members []ids.ProcID, cfg Config) *simNet {
	net := &simNet{rng: rand.New(rand.NewSource(seed)), order: members, nodes: make(map[ids.ProcID]*simNode)}
	for _, p := range members {
		sn := &simNode{net: net, id: p, acked: make(map[uint64]bool)}
		c := cfg
		c.Deliver = func(m Msg) { sn.applied = append(sn.applied, CmdKey{m.Origin, m.PubID}) }
		sn.b = New(sn, c)
		net.nodes[p] = sn
	}
	return net
}

// step dispatches one queued envelope (random busy node, FIFO within the
// node). False = quiescent.
func (net *simNet) step() bool {
	busy := make([]*simNode, 0, len(net.order))
	for _, p := range net.order {
		if n := net.nodes[p]; !n.dead && len(n.inbox) > 0 {
			busy = append(busy, n)
		}
	}
	if len(busy) > 0 {
		n := busy[net.rng.Intn(len(busy))]
		e := n.inbox[0]
		n.inbox = n.inbox[1:]
		if e.fn != nil {
			e.fn()
		} else {
			n.b.HandleApp(e.from, e.payload)
		}
		return true
	}
	return false
}

func (net *simNet) settle(t *testing.T, limit int) {
	for i := 0; i < limit; i++ {
		if !net.step() {
			return
		}
	}
	t.Fatal("sim did not quiesce")
}

// runGroupCommitSim drives one seeded run: four members bootstrap view 0,
// propose concurrently, the sequencer dies mid-stream, the survivors
// install view 1, and the rest of the load lands there. Returns each
// survivor's applied sequence and the set of acked commands.
func runGroupCommitSim(t *testing.T, seed int64, cfg Config) (map[ids.ProcID][]CmdKey, map[CmdKey]bool) {
	members := []ids.ProcID{proc("p1"), proc("p2"), proc("p3"), proc("p4")}
	survivors := members[1:]
	net := newSimNet(seed, members, cfg)
	// The script rng is separate from the scheduler rng: the scheduler
	// draws differently once frame counts diverge between modes, but the
	// script (who proposes, when) must be identical in both.
	script := rand.New(rand.NewSource(seed ^ 0x5eed))

	for _, p := range members {
		net.nodes[p].b.HandleInstall(0, members)
	}
	propose := func(p ids.ProcID) {
		n := net.nodes[p]
		n.b.Propose([]byte(fmt.Sprintf("%v", p)), func(id uint64, err error) {
			if err == nil {
				n.acked[id] = true
			}
		})
	}
	// First half of the load interleaves with bootstrap and each other.
	for i := 0; i < 20; i++ {
		propose(members[script.Intn(len(members))])
		for s := script.Intn(6); s > 0; s-- {
			net.step()
		}
	}
	// The sequencer dies; survivors install the next view mid-traffic.
	net.nodes[members[0]].dead = true
	for _, p := range survivors {
		net.nodes[p].b.HandleInstall(1, survivors)
	}
	for i := 0; i < 20; i++ {
		propose(survivors[script.Intn(len(survivors))])
		for s := script.Intn(6); s > 0; s-- {
			net.step()
		}
	}
	net.settle(t, 100000)

	applied := make(map[ids.ProcID][]CmdKey)
	acked := make(map[CmdKey]bool)
	for _, p := range survivors {
		applied[p] = net.nodes[p].applied
		for id := range net.nodes[p].acked {
			acked[CmdKey{p, id}] = true
		}
	}
	return applied, acked
}

// TestBatchedMatchesUnbatchedUnderViewChanges is the cross-mode property
// test: for each seed, a cap-4 and a cap-1 (batch of one, ack per
// delivery) run of the same script (same proposals, same sequencer crash,
// same scheduler randomness) must
// (a) keep every survivor's applied sequence identical within the run,
// (b) respect per-origin FIFO with no duplicates, (c) lose no acked
// command, and (d) deliver the same survivor-origin command set in both
// modes — batching may interleave origins differently at the sequencer,
// but it must not add, drop, or reorder any origin's own commands.
func TestBatchedMatchesUnbatchedUnderViewChanges(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		unb, unbAcked := runGroupCommitSim(t, seed, Config{
			Batch: BatchConfig{MaxEntries: 1},
			Ack:   AckConfig{Every: 1},
		})
		bat, batAcked := runGroupCommitSim(t, seed, Config{
			Batch: BatchConfig{MaxEntries: 4},
			Ack:   AckConfig{Every: 4},
		})

		for name, run := range map[string]map[ids.ProcID][]CmdKey{"cap 1": unb, "cap 4": bat} {
			var ref []CmdKey
			var refP ids.ProcID
			first := true
			for p, seq := range run {
				// (b) exactly-once + per-origin FIFO.
				seen := make(map[CmdKey]bool)
				lastPub := make(map[ids.ProcID]uint64)
				for _, k := range seq {
					if seen[k] {
						t.Fatalf("seed %d %s: %v applied %v twice", seed, name, p, k)
					}
					seen[k] = true
					if k.PubID <= lastPub[k.Origin] {
						t.Fatalf("seed %d %s: %v broke origin FIFO at %v", seed, name, p, k)
					}
					lastPub[k.Origin] = k.PubID
				}
				// (a) all survivors agree on the whole order.
				if first {
					ref, refP, first = seq, p, false
				} else if !reflect.DeepEqual(ref, seq) {
					t.Fatalf("seed %d %s: survivors %v and %v applied different orders:\n%v\n%v",
						seed, name, refP, p, ref, seq)
				}
			}
		}

		// (c) zero acked loss, in each mode.
		for name, pair := range map[string]struct {
			acked map[CmdKey]bool
			run   map[ids.ProcID][]CmdKey
		}{"cap 1": {unbAcked, unb}, "cap 4": {batAcked, bat}} {
			for p, seq := range pair.run {
				have := make(map[CmdKey]bool, len(seq))
				for _, k := range seq {
					have[k] = true
				}
				for k := range pair.acked {
					if !have[k] {
						t.Fatalf("seed %d %s: acked %v missing from %v's applied order", seed, name, k, p)
					}
				}
			}
		}

		// (d) identical survivor-origin delivery sets across modes.
		setOf := func(run map[ids.ProcID][]CmdKey) map[CmdKey]bool {
			out := make(map[CmdKey]bool)
			for _, seq := range run {
				for _, k := range seq {
					if k.Origin != proc("p1") {
						out[k] = true
					}
				}
			}
			return out
		}
		if a, b := setOf(unb), setOf(bat); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: survivor-origin delivery sets differ between modes:\ncap 1 %v\ncap 4 %v", seed, a, b)
		}
	}
}

// TestGroupCommitLivenessAfterSequencerCrash is the liveness property:
// once the network quiesces (no queued frames or tasks), every
// proposal made by a survivor must have completed — the pipeline-paced
// flush must never strand queued pubs behind a pipeline slot that a view
// change emptied. Bursty load (many proposals between scheduler steps)
// keeps the origin pipelines deep across the crash, which is exactly
// where a pacing leak would deadlock the real system.
func TestGroupCommitLivenessAfterSequencerCrash(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		members := []ids.ProcID{proc("p1"), proc("p2"), proc("p3"), proc("p4")}
		survivors := members[1:]
		net := newSimNet(seed, members, Config{
			Batch: BatchConfig{MaxEntries: 8},
			Ack:   AckConfig{Every: 8},
		})
		script := rand.New(rand.NewSource(seed ^ 0x11fe))
		for _, p := range members {
			net.nodes[p].b.HandleInstall(0, members)
		}
		proposed := make(map[ids.ProcID]int)
		propose := func(p ids.ProcID) {
			proposed[p]++
			n := net.nodes[p]
			n.b.Propose([]byte{byte(proposed[p])}, func(id uint64, err error) {
				if err == nil {
					n.acked[id] = true
				}
			})
		}
		for i := 0; i < 40; i++ {
			propose(members[script.Intn(len(members))])
			if script.Intn(3) == 0 {
				for s := script.Intn(8); s > 0; s-- {
					net.step()
				}
			}
		}
		net.nodes[members[0]].dead = true
		for _, p := range survivors {
			net.nodes[p].b.HandleInstall(1, survivors)
		}
		for i := 0; i < 40; i++ {
			propose(survivors[script.Intn(len(survivors))])
			if script.Intn(3) == 0 {
				for s := script.Intn(8); s > 0; s-- {
					net.step()
				}
			}
		}
		net.settle(t, 200000)
		for _, p := range survivors {
			n := net.nodes[p]
			if len(n.acked) != proposed[p] {
				t.Fatalf("seed %d: %v quiesced with %d/%d proposals acked",
					seed, p, len(n.acked), proposed[p])
			}
		}
	}
}
