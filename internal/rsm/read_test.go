package rsm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"procgroup/internal/broadcast"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/rsm"
)

// batchedCfg is the group-commit configuration the batched swarm tests
// run under: moderate caps so batches actually form at test load.
func batchedCfg() broadcast.Config {
	return broadcast.Config{
		Batch: broadcast.BatchConfig{MaxEntries: 16},
		Ack:   broadcast.AckConfig{Every: 16},
	}
}

// TestKVBatchedSteadyState is TestKVSteadyState under group commit: the
// same write/read mix must certify identically, and the batch machinery
// must actually have engaged.
func TestKVBatchedSteadyState(t *testing.T) {
	s := startKVCfg(t, live.Options{N: 5}, batchedCfg())
	if _, err := s.c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	procs := ids.Gen(5)
	for i := 0; i < 60; i++ {
		p := procs[i%len(procs)]
		key := fmt.Sprintf("k%d", i%7)
		if !s.put(p, key, fmt.Sprintf("v%d-%d", i, i%7), 10*time.Second) {
			t.Fatalf("write %d via %v not acked", i, p)
		}
		if i%5 == 4 {
			if _, ok := s.get(p, key, 10*time.Second); !ok {
				t.Fatalf("read %d via %v not acked", i, p)
			}
		}
	}
	s.settle(10 * time.Second)
	s.certify()

	var st rsm.Stats
	s.mu.Lock()
	for _, n := range s.nodes {
		st = st.Add(n.Stats())
	}
	s.mu.Unlock()
	if st.Broadcast.PubBatches == 0 || st.Broadcast.SeqdBatches == 0 {
		t.Errorf("batching never engaged: %d pub batches, %d seqd batches",
			st.Broadcast.PubBatches, st.Broadcast.SeqdBatches)
	}
}

// TestKVBatchedSurvivesSequencerCrash: the acceptance bar's crash arm
// under batching — killing the sequencer mid-batch-stream must lose no
// acked write and still certify the full battery.
func TestKVBatchedSurvivesSequencerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash convergence needs real time")
	}
	s := startKVCfg(t, live.Options{N: 5}, batchedCfg())
	v, err := s.c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seqID := v.Mgr()
	procs := ids.Gen(5)

	stop := make(chan struct{})
	doneCh := make(chan struct{})
	for _, p := range procs {
		if p == seqID {
			continue
		}
		go func(p ids.ProcID) {
			defer func() { doneCh <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.put(p, fmt.Sprintf("%v-k%d", p, i%5), fmt.Sprintf("%v-v%d", p, i), 15*time.Second)
			}
		}(p)
	}
	time.Sleep(150 * time.Millisecond)
	s.c.Kill(seqID)
	if _, err := s.c.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	for i := 0; i < 4; i++ {
		<-doneCh
	}

	newV, _ := s.c.WaitConverged(10 * time.Second)
	if !s.put(newV.Mgr(), "after-crash", "ok", 15*time.Second) {
		t.Fatal("write after sequencer crash not acked")
	}
	s.settle(15 * time.Second)
	s.certify()
}

// TestKVLocalReads: stability-fenced local reads return the latest acked
// value without entering the total order, on every replica, and the whole
// history (sequenced writes + local reads) certifies linearizable.
func TestKVLocalReads(t *testing.T) {
	s := startKVCfg(t, live.Options{N: 3}, batchedCfg())
	if _, err := s.c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	procs := ids.Gen(3)
	for round := 0; round < 10; round++ {
		key := fmt.Sprintf("k%d", round%3)
		val := fmt.Sprintf("v%d", round)
		if !s.put(procs[round%3], key, val, 10*time.Second) {
			t.Fatalf("write %d not acked", round)
		}
		// Read-your-writes through EVERY replica: the put acked at
		// stability, so each member has applied it and the fenced local
		// read must return it.
		for _, p := range procs {
			got, local, ok := s.readLocal(p, key, 10*time.Second)
			if !ok {
				t.Fatalf("local read of %q via %v not acked", key, p)
			}
			if !local {
				t.Errorf("read of %q via %v fell back to the sequenced path", key, p)
			}
			if got != val {
				t.Fatalf("local read of %q via %v = %q, want %q", key, p, got, val)
			}
		}
	}
	s.settle(10 * time.Second)
	s.certify()

	var st rsm.Stats
	s.mu.Lock()
	for _, n := range s.nodes {
		st = st.Add(n.Stats())
	}
	s.mu.Unlock()
	if st.LocalReads == 0 {
		t.Error("no reads took the local path")
	}
	if st.Broadcast.Fences == 0 {
		t.Error("local reads registered no stability fences")
	}
}

// loopNode is a live.AppNode with its own event-loop goroutine: Run
// posts to the loop and Send captures frames, so a test can play the rest
// of the group around one real replica.
type loopNode struct {
	id    ids.ProcID
	tasks chan func()
	sent  chan any
}

func (l *loopNode) ID() ids.ProcID               { return l.id }
func (l *loopNode) Send(_ ids.ProcID, frame any) { l.sent <- frame }
func (l *loopNode) Run(fn func())                { l.tasks <- fn }

// TestJoinerLocalReadBeforeSyncSeesSnapshot: a fenced local read issued
// on a joiner that has installed its first view but not yet received its
// ViewSync must not return the joiner's empty pre-snapshot state — the
// group already holds k=v1, and the read must reflect it.
func TestJoinerLocalReadBeforeSyncSeesSnapshot(t *testing.T) {
	seq, self := ids.Named("p1"), ids.Named("p9")
	// Buffers cover every task and frame of this short script, so the loop
	// never blocks on the test.
	ln := &loopNode{id: self, tasks: make(chan func(), 16), sent: make(chan any, 16)}
	go func() {
		for fn := range ln.tasks {
			fn()
		}
	}()
	defer close(ln.tasks)
	node := rsm.NewNode(ln, rsm.Config{Machine: rsm.NewKV()})
	h := node.Hook()
	ln.Run(func() { h.HandleInstall(1, []ids.ProcID{seq, self}) })
	if _, ok := (<-ln.sent).(broadcast.Flush); !ok {
		t.Fatal("joiner's first frame is not its flush")
	}

	type outcome struct {
		res rsm.ReadResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := node.Read(rsm.EncodeGet("k"), rsm.ReadLocal, 10*time.Second)
		done <- outcome{res, err}
	}()
	// Let the read reach the loop before the ViewSync does.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if st := node.Stats(); st.ReadFallbacks+st.Broadcast.Fences > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read never reached the event loop")
		}
		time.Sleep(time.Millisecond)
	}
	group := rsm.NewKV()
	group.Apply(rsm.EncodePut("k", "v1"))
	ln.Run(func() {
		h.HandleApp(seq, broadcast.ViewSync{Ver: 1, HasSnap: true, Snapshot: group.Snapshot(),
			Applied: []broadcast.Applied{{Origin: seq, Max: 1}}})
	})

	timeout := time.After(10 * time.Second)
	for {
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if got := string(o.res.Resp); got != "v1" {
				t.Fatalf("joiner read = %q (local %v, fence %v), want the snapshot's v1", got, o.res.Local, o.res.Fence)
			}
			return
		case f := <-ln.sent:
			// Play the sequencer for a read that fell back to the order.
			if p, ok := f.(broadcast.Pub); ok {
				ln.Run(func() {
					h.HandleApp(seq, broadcast.Seqd{Ver: 1, Seq: 1, Origin: self, PubID: p.PubID, Body: p.Body})
					h.HandleApp(seq, broadcast.Stable{Ver: 1, Seq: 1})
				})
			}
		case <-timeout:
			t.Fatal("joiner read never completed")
		}
	}
}

// TestKVSnapshotBinaryCodec: the KV snapshot rides the binary wire codec
// and round-trips exactly; malformed input restores the longest
// well-formed prefix without panicking.
func TestKVSnapshotBinaryCodec(t *testing.T) {
	kv := rsm.NewKV()
	want := map[string]string{"": "empty-key", "k1": "v1", "long-" + strings.Repeat("k", 300): strings.Repeat("v", 1000)}
	for k, v := range want {
		kv.Apply(rsm.EncodePut(k, v))
	}
	snap := kv.Snapshot()

	got := rsm.NewKV()
	got.Restore(snap)
	if got.Len() != len(want) {
		t.Fatalf("restored %d keys, want %d", got.Len(), len(want))
	}
	for k, v := range want {
		if g := got.Get(k); g != v {
			t.Fatalf("restored %q = %q, want %q", k, g, v)
		}
	}

	// Truncation at every byte: never panic, never invent state beyond
	// the prefix that survived.
	for n := 0; n < len(snap); n++ {
		fresh := rsm.NewKV()
		fresh.Restore(snap[:n])
		if fresh.Len() > len(want) {
			t.Fatalf("truncated snapshot restored %d keys, more than the original %d", fresh.Len(), len(want))
		}
	}
	empty := rsm.NewKV()
	empty.Restore(nil)
	if empty.Len() != 0 {
		t.Fatalf("nil snapshot restored %d keys", empty.Len())
	}
}

// TestKVReadLocalCommandGate: only read commands qualify for the local
// path; writes must refuse it.
func TestKVReadLocalCommandGate(t *testing.T) {
	kv := rsm.NewKV()
	kv.Apply(rsm.EncodePut("k", "v"))
	if out, ok := kv.ReadLocal(rsm.EncodeGet("k")); !ok || string(out) != "v" {
		t.Fatalf("ReadLocal(get k) = %q, %v; want \"v\", true", out, ok)
	}
	if _, ok := kv.ReadLocal(rsm.EncodePut("k", "w")); ok {
		t.Fatal("ReadLocal accepted a write command")
	}
	if _, ok := kv.ReadLocal(nil); ok {
		t.Fatal("ReadLocal accepted a malformed command")
	}
}

// rec builds one applied order record for the checker-negative tests.
func rec(origin ids.ProcID, pubID uint64, body []byte) rsm.Record {
	return rsm.Record{Ver: 0, Seq: pubID, Origin: origin, PubID: pubID, Body: body, Applied: true}
}

// TestCheckerCatchesStaleLocalRead: a local read whose value predates its
// own fence position must fail certification.
func TestCheckerCatchesStaleLocalRead(t *testing.T) {
	pa := ids.Named("pa")
	order := []rsm.Record{
		rec(pa, 1, rsm.EncodePut("k", "v1")),
		rec(pa, 2, rsm.EncodePut("k", "v2")),
	}
	ops := []rsm.ClientOp{
		{Write: true, Key: "k", Val: "v1", Origin: pa, PubID: 1, Invoke: 1, Complete: 2, Acked: true},
		{Write: true, Key: "k", Val: "v2", Origin: pa, PubID: 2, Invoke: 3, Complete: 4, Acked: true},
		// Fenced at pa/2 (state says v2) but claims it read v1: stale.
		{Key: "k", Val: "v1", Invoke: 5, Complete: 6, Acked: true,
			Local: true, Fence: rsm.CmdID{Origin: pa, PubID: 2}},
	}
	err := rsm.CheckKVLinearizable(ops, order)
	if err == nil || !strings.Contains(err.Error(), "STALE LOCAL READ") {
		t.Fatalf("stale local read not caught: %v", err)
	}

	// The honest version of the same history certifies.
	ops[2].Val = "v2"
	if err := rsm.CheckKVLinearizable(ops, order); err != nil {
		t.Fatalf("honest local read rejected: %v", err)
	}
}

// TestCheckerCatchesLocalReadRealTimeViolation: a local read invoked
// after a later write completed, yet fenced before that write, breaks
// real time and must fail certification.
func TestCheckerCatchesLocalReadRealTimeViolation(t *testing.T) {
	pa := ids.Named("pa")
	order := []rsm.Record{
		rec(pa, 1, rsm.EncodePut("k", "v1")),
		rec(pa, 2, rsm.EncodePut("k", "v2")),
	}
	ops := []rsm.ClientOp{
		{Write: true, Key: "k", Val: "v1", Origin: pa, PubID: 1, Invoke: 1, Complete: 2, Acked: true},
		{Write: true, Key: "k", Val: "v2", Origin: pa, PubID: 2, Invoke: 3, Complete: 4, Acked: true},
		// Invoked at 5 — after pa/2 completed — but fenced at pa/1 and
		// returning v1: it observed state older than a write that finished
		// before it began.
		{Key: "k", Val: "v1", Invoke: 5, Complete: 6, Acked: true,
			Local: true, Fence: rsm.CmdID{Origin: pa, PubID: 1}},
	}
	err := rsm.CheckKVLinearizable(ops, order)
	if err == nil || !strings.Contains(err.Error(), "real-time violation") {
		t.Fatalf("local-read real-time violation not caught: %v", err)
	}
}

// TestCheckerCatchesLostLocalReadFence: a local read fenced at a command
// the applied order does not contain means the read observed state that
// was later lost — certification must fail.
func TestCheckerCatchesLostLocalReadFence(t *testing.T) {
	pa := ids.Named("pa")
	order := []rsm.Record{rec(pa, 1, rsm.EncodePut("k", "v1"))}
	ops := []rsm.ClientOp{
		{Key: "k", Val: "v?", Invoke: 1, Complete: 2, Acked: true,
			Local: true, Fence: rsm.CmdID{Origin: pa, PubID: 9}},
	}
	if err := rsm.CheckKVLinearizable(ops, order); err == nil {
		t.Fatal("local read fenced at a lost command passed certification")
	}
}

// TestCheckerAcceptsEmptyPrefixLocalRead: a zero fence is a legal read of
// the empty prefix — it must certify iff the value is the empty state's.
func TestCheckerAcceptsEmptyPrefixLocalRead(t *testing.T) {
	pa := ids.Named("pa")
	order := []rsm.Record{rec(pa, 1, rsm.EncodePut("k", "v1"))}
	ops := []rsm.ClientOp{
		{Key: "k", Val: "", Invoke: 1, Complete: 2, Acked: true, Local: true},
	}
	if err := rsm.CheckKVLinearizable(ops, order); err != nil {
		t.Fatalf("empty-prefix local read rejected: %v", err)
	}
	ops[0].Val = "v1" // claims a value the empty prefix cannot hold
	if err := rsm.CheckKVLinearizable(ops, order); err == nil {
		t.Fatal("empty-prefix local read with a non-empty value passed")
	}
}
