package broadcast

import (
	"math/rand"
	"testing"

	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// fakeNode is a deterministic live.AppNode: sends are captured, and Run
// posts to the tail of a queue the test drains with endBurst — the model
// of a Run posted to the node's mailbox, which executes only after the
// envelopes queued before it. It drives one Broadcaster directly, with
// the test playing the network: each HandleApp call is one dispatched
// envelope of the current burst.
type fakeNode struct {
	id   ids.ProcID
	sent []fakeSend
	runq []func()
}

type fakeSend struct {
	to      ids.ProcID
	payload any
}

func (f *fakeNode) ID() ids.ProcID { return f.id }
func (f *fakeNode) Send(to ids.ProcID, payload any) {
	f.sent = append(f.sent, fakeSend{to, payload})
}
func (f *fakeNode) Run(fn func())        { f.runq = append(f.runq, fn) }
func (f *fakeNode) takeSent() []fakeSend { s := f.sent; f.sent = nil; return s }
func proc(s string) ids.ProcID           { return ids.Named(s) }

// endBurst ends the current burst: it runs the posted tasks in order,
// including any they post in turn.
func (f *fakeNode) endBurst() {
	for len(f.runq) > 0 {
		fn := f.runq[0]
		f.runq = f.runq[1:]
		fn()
	}
}

func entry(ver, seq uint64, origin ids.ProcID, pubID uint64) Entry {
	return Entry{Ver: ver, Seq: seq, Origin: origin, PubID: pubID, Body: []byte{byte(pubID)}}
}

// seqd is the sequencer's fan-out of one entry: a SeqdBatch of one.
func seqd(en Entry) SeqdBatch {
	return SeqdBatch{Ver: en.Ver, FirstSeq: en.Seq, Entries: []SeqdItem{{Origin: en.Origin, PubID: en.PubID, Body: en.Body}}}
}

func TestFutureViewBufferReplaysInOrder(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	var got []Msg
	b := New(fn, Config{Deliver: func(m Msg) { got = append(got, m) }})
	seq, self := proc("p1"), proc("p2")
	members := []ids.ProcID{seq, self}

	b.HandleInstall(0, members)
	sent := fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("install should flush to the sequencer, sent %v", sent)
	}
	if f, ok := sent[0].payload.(Flush); !ok || sent[0].to != seq || !f.Joining {
		t.Fatalf("expected joining Flush to %v, got %+v", seq, sent[0])
	}
	b.HandleApp(seq, ViewSync{Ver: 0, HasSnap: true})

	px := proc("p9")
	// Traffic for view 2, which this member has not installed: the whole
	// tail must park in the view-change buffer, per-channel order intact.
	b.HandleApp(seq, ViewSync{Ver: 2, Entries: []Entry{entry(2, 1, px, 1), entry(2, 2, px, 2)}})
	b.HandleApp(seq, seqd(entry(2, 3, px, 3)))
	b.HandleApp(seq, seqd(entry(2, 4, px, 4)))
	if n := b.stats.BufferedFuture.Load(); n != 3 {
		t.Fatalf("BufferedFuture = %d, want 3", n)
	}
	if len(got) != 0 {
		t.Fatalf("future traffic delivered early: %v", got)
	}

	// Current-view traffic still flows around the parked tail.
	py := proc("p8")
	b.HandleApp(seq, seqd(entry(0, 1, py, 1)))
	if len(got) != 1 || got[0].Origin != py {
		t.Fatalf("current-view SeqdBatch not delivered, got %v", got)
	}

	// Installing view 1 must not leak view-2 traffic...
	b.HandleInstall(1, members)
	if len(got) != 1 {
		t.Fatalf("view-2 traffic replayed at view 1: %v", got)
	}
	// ...installing view 2 replays it: ViewSync first (it arrived first),
	// then the SeqdBatches behind it, delivering px 1..4 in order.
	b.HandleInstall(2, members)
	if len(got) != 5 {
		t.Fatalf("replay delivered %d messages, want 5: %v", len(got), got)
	}
	for i, m := range got[1:] {
		if m.Origin != px || m.PubID != uint64(i+1) || m.Ver != member.Version(2) {
			t.Fatalf("replayed message %d = %+v, want px/%d in view 2", i, m, i+1)
		}
	}
}

func TestStaleViewTrafficDropped(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	var got []Msg
	b := New(fn, Config{Deliver: func(m Msg) { got = append(got, m) }})
	seq := proc("p1")
	members := []ids.ProcID{seq, proc("p2")}
	b.HandleInstall(3, members)
	b.HandleApp(seq, ViewSync{Ver: 3, HasSnap: true})

	px := proc("p9")
	b.HandleApp(seq, seqd(entry(1, 1, px, 1)))
	b.HandleApp(seq, Stable{Ver: 2, Seq: 5})
	b.HandleApp(seq, ViewSync{Ver: 1})
	if n := b.stats.DroppedStale.Load(); n != 3 {
		t.Fatalf("DroppedStale = %d, want 3", n)
	}
	if len(got) != 0 {
		t.Fatalf("stale traffic delivered: %v", got)
	}
}

func TestFutureBufferOverflowCapped(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{MaxBuffered: 8})
	seq := proc("p1")
	b.HandleInstall(0, []ids.ProcID{seq, proc("p2")})
	px := proc("p9")
	for i := 0; i < 20; i++ {
		b.HandleApp(seq, seqd(entry(5, uint64(i+1), px, uint64(i+1))))
	}
	if n := b.stats.BufferedFuture.Load(); n != 8 {
		t.Fatalf("BufferedFuture = %d, want cap 8", n)
	}
	if n := b.stats.DroppedOverflow.Load(); n != 12 {
		t.Fatalf("DroppedOverflow = %d, want 12", n)
	}
}

func TestFutureBufferOverflowEvictsFarthestFirst(t *testing.T) {
	// Churn-storm shape: the buffer fills with far-future junk (view 9),
	// then the traffic the very next install needs (view 1) arrives. The
	// old rule rejected the incoming frame regardless of version; now the
	// near-future frame must displace a far-future one.
	fn := &fakeNode{id: proc("p2")}
	var got []Msg
	b := New(fn, Config{MaxBuffered: 8, Deliver: func(m Msg) { got = append(got, m) }})
	seq := proc("p1")
	members := []ids.ProcID{seq, proc("p2")}
	b.HandleInstall(0, members)
	b.HandleApp(seq, ViewSync{Ver: 0, HasSnap: true})

	px := proc("p9")
	for i := 0; i < 8; i++ {
		b.HandleApp(seq, seqd(entry(9, uint64(i+1), px, uint64(i+1))))
	}
	// The near-future view's sync + first entry arrive at a full buffer.
	b.HandleApp(seq, ViewSync{Ver: 1, Entries: []Entry{entry(1, 1, px, 41)}})
	b.HandleApp(seq, seqd(entry(1, 2, px, 42)))

	if n := b.futureN; n != 8 {
		t.Fatalf("futureN = %d, want cap 8", n)
	}
	if n := b.stats.DroppedOverflow.Load(); n != 2 {
		t.Fatalf("DroppedOverflow = %d, want 2 (both evicted from view 9)", n)
	}
	// Both drops were at distance ≥4 (view 9 from view 0).
	if n := b.stats.OverflowDist[3].Load(); n != 2 {
		t.Fatalf("OverflowDist[≥4] = %d, want 2", n)
	}
	if n := b.stats.OverflowDist[0].Load(); n != 0 {
		t.Fatalf("OverflowDist[1] = %d, want 0 — the near-future frames must not be the drops", n)
	}

	// Install view 1: the parked ViewSync and SeqdBatch replay in order.
	b.HandleInstall(1, members)
	if len(got) != 2 || got[0].PubID != 41 || got[1].PubID != 42 {
		t.Fatalf("view-1 replay delivered %v, want px/41 then px/42", got)
	}

	// The surviving view-9 frames are the 6 oldest (FIFO prefix intact):
	// seqs 1..6 remain, 7 and 8 were evicted newest-first.
	if q := b.future[9]; len(q) != 6 {
		t.Fatalf("view-9 buffer holds %d frames, want 6", len(q))
	} else {
		for i, fm := range q {
			if e := fm.payload.(SeqdBatch); e.FirstSeq != uint64(i+1) {
				t.Fatalf("view-9 survivor %d has seq %d, want %d (FIFO prefix broken)", i, e.FirstSeq, i+1)
			}
		}
	}
}

func TestFutureBufferOverflowFarIncomingStillDropped(t *testing.T) {
	// When the incoming frame is as far as (or farther than) anything
	// parked, it is itself the junk: drop it, don't churn the buffer.
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{MaxBuffered: 4})
	seq := proc("p1")
	b.HandleInstall(0, []ids.ProcID{seq, proc("p2")})
	px := proc("p9")
	for i := 0; i < 4; i++ {
		b.HandleApp(seq, seqd(entry(3, uint64(i+1), px, uint64(i+1))))
	}
	b.HandleApp(seq, seqd(entry(7, 1, px, 9)))
	if _, ok := b.future[7]; ok {
		t.Fatal("farther-future frame displaced nearer parked traffic")
	}
	if n := b.stats.DroppedOverflow.Load(); n != 1 {
		t.Fatalf("DroppedOverflow = %d, want 1", n)
	}
	if n := b.stats.OverflowDist[3].Load(); n != 1 {
		t.Fatalf("OverflowDist[≥4] = %d, want 1 (the view-7 frame)", n)
	}
}

func TestSkippedInstallDropsIntermediateBuffer(t *testing.T) {
	// A reconfiguration can batch several ops into one install, so a
	// member may never install some intermediate version: anything parked
	// for it must drain as stale, not replay into the wrong view.
	fn := &fakeNode{id: proc("p2")}
	var got []Msg
	b := New(fn, Config{Deliver: func(m Msg) { got = append(got, m) }})
	seq := proc("p1")
	members := []ids.ProcID{seq, proc("p2")}
	b.HandleInstall(0, members)
	b.HandleApp(seq, ViewSync{Ver: 0, HasSnap: true})

	px := proc("p9")
	b.HandleApp(seq, seqd(entry(1, 1, px, 1)))                               // for skipped view 1
	b.HandleApp(seq, ViewSync{Ver: 3, Entries: []Entry{entry(3, 1, px, 7)}}) // for view 3
	b.HandleInstall(3, members)
	if n := b.stats.DroppedStale.Load(); n != 1 {
		t.Fatalf("DroppedStale = %d, want 1 (the view-1 SeqdBatch)", n)
	}
	if len(got) != 1 || got[0].PubID != 7 {
		t.Fatalf("view-3 replay delivered %v, want exactly px/7", got)
	}
}

// TestFutureBufferProperty is the randomized property test: traffic for
// several not-yet-installed views arrives in an arbitrary interleaving
// (per-view channel order preserved, as FIFO channels guarantee); after
// the installs land in version order, every view's messages must have
// been delivered exactly once, in per-view sequence order, with nothing
// delivered before its install.
func TestFutureBufferProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fn := &fakeNode{id: proc("p2")}
		var got []Msg
		b := New(fn, Config{Deliver: func(m Msg) { got = append(got, m) }, MaxBuffered: 1 << 14})
		seq := proc("p1")
		members := []ids.ProcID{seq, proc("p2")}
		b.HandleInstall(0, members)
		b.HandleApp(seq, ViewSync{Ver: 0, HasSnap: true})

		px := proc("p9")
		nViews := 2 + rng.Intn(4)
		scripts := make([][]any, nViews) // per-view message queue, FIFO
		var want []uint64                // pubIDs in expected delivery order
		pub := uint64(0)
		for v := 0; v < nViews; v++ {
			ver := uint64(v + 1)
			nmsg := 1 + rng.Intn(5)
			var ents []Entry
			var script []any
			seqNo := uint64(0)
			// The view opens with its ViewSync carrying a random prefix
			// of its entries; the rest follow as SeqdBatches.
			nSync := rng.Intn(nmsg + 1)
			for i := 0; i < nmsg; i++ {
				pub++
				seqNo++
				e := entry(ver, seqNo, px, pub)
				want = append(want, pub)
				if i < nSync {
					ents = append(ents, e)
				} else {
					script = append(script, seqd(e))
				}
			}
			scripts[v] = append([]any{ViewSync{Ver: ver, Entries: ents}}, script...)
		}

		// Random fair interleaving across views, order within preserved.
		for {
			live := make([]int, 0, nViews)
			for v, s := range scripts {
				if len(s) > 0 {
					live = append(live, v)
				}
			}
			if len(live) == 0 {
				break
			}
			v := live[rng.Intn(len(live))]
			b.HandleApp(seq, scripts[v][0])
			scripts[v] = scripts[v][1:]
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d messages delivered before their views installed", seed, len(got))
		}

		for v := 1; v <= nViews; v++ {
			b.HandleInstall(member.Version(v), members)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: delivered %d messages, want %d", seed, len(got), len(want))
		}
		for i, m := range got {
			if m.PubID != want[i] {
				t.Fatalf("seed %d: delivery %d = pub %d, want %d", seed, i, m.PubID, want[i])
			}
		}
		seen := make(map[uint64]bool)
		for _, m := range got {
			if seen[m.PubID] {
				t.Fatalf("seed %d: pub %d delivered twice", seed, m.PubID)
			}
			seen[m.PubID] = true
		}
	}
}

func TestProposeBeforeFirstInstallIsHeldThenSent(t *testing.T) {
	fn := &fakeNode{id: proc("p2")}
	b := New(fn, Config{})
	seq := proc("p1")
	done := 0
	b.Propose([]byte("x"), func(uint64, error) { done++ })
	fn.endBurst()
	if len(fn.takeSent()) != 0 {
		t.Fatal("pub escaped before any view installed")
	}
	b.HandleInstall(0, []ids.ProcID{seq, proc("p2")})
	fn.takeSent() // the flush
	b.HandleApp(seq, ViewSync{Ver: 0, HasSnap: true})
	var pubs int
	for _, s := range fn.takeSent() {
		if pb, ok := s.payload.(PubBatch); ok {
			pubs += len(pb.Pubs)
			if s.to != seq || len(pb.Pubs) != 1 || pb.Pubs[0].PubID != 1 {
				t.Fatalf("pub resubmitted wrong: %+v", s)
			}
		}
	}
	if pubs != 1 {
		t.Fatalf("held proposal sent %d times after sync, want 1", pubs)
	}
	if done != 0 {
		t.Fatal("proposal acked without stability")
	}
	// Sequence comes back, then stability: the ack fires only at Stable.
	b.HandleApp(seq, seqd(entry(0, 1, proc("p2"), 1)))
	if done != 0 {
		t.Fatal("proposal acked at delivery; stability is the contract")
	}
	b.HandleApp(seq, Stable{Ver: 0, Seq: 1})
	if done != 1 {
		t.Fatalf("proposal not acked at stability (done=%d)", done)
	}
}
