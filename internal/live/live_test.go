package live

import (
	"slices"
	"testing"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// fast returns options tuned for test speed.
func fast(n int) Options {
	return Options{
		N:              n,
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   30 * time.Millisecond,
	}
}

func TestBootstrapConverges(t *testing.T) {
	c := Start(fast(5))
	defer c.Stop()
	v, err := c.WaitConverged(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 5 || v.Version() != 0 {
		t.Errorf("initial view %v", v)
	}
}

func TestKillIsDetectedAndExcluded(t *testing.T) {
	c := Start(fast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p5")
	c.Kill(victim)
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(victim) || v.Size() != 4 {
		t.Errorf("view after kill: %v", v)
	}
}

func TestCoordinatorKillTriggersReconfiguration(t *testing.T) {
	c := Start(fast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1"))
	v, err := c.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) {
		t.Errorf("dead coordinator still in %v", v)
	}
	if v.Mgr() != ids.Named("p2") {
		t.Errorf("Mgr = %v, want p2", v.Mgr())
	}
	ok := c.Query(ids.Named("p2"), func(n *core.Node) {
		if !n.IsCoordinator() {
			t.Error("p2 does not believe itself coordinator")
		}
	})
	if !ok {
		t.Fatal("p2 is gone")
	}
}

func TestLiveJoin(t *testing.T) {
	c := Start(fast(4))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	j := ids.Named("p9")
	c.Join(j, ids.Named("p1"))
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has(j) || v.Size() != 5 {
		t.Errorf("view after join: %v", v)
	}
}

func TestUpdatesStreamDeliversInstalls(t *testing.T) {
	c := Start(fast(3))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p3"))
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Drain: we must find a v1 install from both survivors.
	got := map[ids.ProcID]bool{}
	deadline := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case u := <-c.Updates():
			if u.Ver == 1 {
				got[u.Proc] = true
			}
		case <-deadline:
			t.Fatalf("v1 installs seen only from %v", got)
		}
	}
}

func TestLiveRunSatisfiesGMP(t *testing.T) {
	c := Start(fast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p5"))
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1"))
	if _, err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(5),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("live run violates GMP:\n%v", rep)
	}
}

func TestStopIsIdempotentAndJoinsGoroutines(t *testing.T) {
	c := Start(fast(3))
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop() // second call must be a no-op
	if got := c.Running(); len(got) != 0 {
		t.Errorf("Running after Stop = %v", got)
	}
	// Join after Stop must not spawn anything.
	c.Join(ids.Named("late"), ids.Named("p1"))
	if got := c.Running(); len(got) != 0 {
		t.Errorf("Join after Stop spawned %v", got)
	}
}

func TestRejoinWithNewIncarnation(t *testing.T) {
	// A killed site comes back as a new incarnation (the paper's model of
	// recovery, §1) and is admitted as a brand-new process; the old
	// identifier never reappears (GMP-4).
	c := Start(fast(4))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	old := ids.Named("p4")
	c.Kill(old)
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	reborn := ids.ProcID{Site: "p4", Incarnation: 1}
	c.Join(reborn, ids.Named("p1"))
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has(reborn) || v.Has(old) {
		t.Errorf("view %v, want reborn incarnation only", v)
	}
	if v.Rank(reborn) != 1 {
		t.Errorf("reborn rank %d, want lowest seniority", v.Rank(reborn))
	}
}

func TestJoinDuringCoordinatorFailure(t *testing.T) {
	// The join request races a coordinator kill; the group must converge
	// and, because the contact re-reports to the new coordinator via the
	// queued Recovered set surviving in gossip, usually admit the joiner.
	c := Start(fast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	go c.Join(ids.Named("j1"), ids.Named("p3"))
	c.Kill(ids.Named("p1"))
	if _, err := c.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSoakChurnLoop(t *testing.T) {
	// A soak of the live runtime: repeated kill/join cycles with real
	// goroutines and heartbeats, converging after every change, then a
	// full GMP check over the accumulated trace.
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	c := Start(fast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	inc := uint32(0)
	for cycle := 0; cycle < 4; cycle++ {
		running := c.Running()
		victim := running[len(running)-1]
		if victim == ids.Named("p1") && len(running) > 1 {
			victim = running[len(running)-2]
		}
		c.Kill(victim)
		if _, err := c.WaitConverged(15 * time.Second); err != nil {
			t.Fatalf("cycle %d after kill: %v", cycle, err)
		}
		inc++
		reborn := ids.ProcID{Site: victim.Site, Incarnation: victim.Incarnation + inc}
		contact := c.Running()[0]
		c.Join(reborn, contact)
		if _, err := c.WaitConverged(15 * time.Second); err != nil {
			t.Fatalf("cycle %d after join: %v", cycle, err)
		}
	}
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(5),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("soak trace violates GMP:\n%v", rep)
	}
}

func TestQueryOnDeadNode(t *testing.T) {
	c := Start(fast(3))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p3"))
	if c.Query(ids.Named("p3"), func(*core.Node) {}) {
		t.Error("Query on killed node reported success")
	}
	if v := c.ViewOf(ids.Named("p3")); v != nil {
		t.Error("ViewOf killed node returned a view")
	}
}

// burstFrame is a self-addressed application frame for the burst test.
type burstFrame string

func (burstFrame) AppTraffic() {}

// burstHook logs the order its loop handles frames and posted tasks in.
type burstHook struct {
	n    AppNode
	log  []string // loop-owned
	done chan []string
}

func (h *burstHook) HandleInstall(member.Version, []ids.ProcID) {}

func (h *burstHook) HandleApp(_ ids.ProcID, payload any) {
	f := payload.(burstFrame)
	h.log = append(h.log, string(f))
	switch f {
	case "a1":
		h.n.Run(func() { h.log = append(h.log, "run") })
		h.n.Send(h.n.ID(), burstFrame("b1"))
	case "b1":
		h.done <- h.log
	}
}

// TestRunDuringDispatchEndsTheBurst pins the ordering end-of-burst flushes
// rely on: a Run posted while the loop dispatches executes after every
// envelope queued before it and before any envelope queued after it.
func TestRunDuringDispatchEndsTheBurst(t *testing.T) {
	hook := &burstHook{done: make(chan []string, 1)}
	opts := fast(1)
	opts.App = func(n AppNode) AppHook {
		hook.n = n
		return hook
	}
	c := Start(opts)
	defer c.Stop()

	// Hold the loop so a1..a3 queue up behind one another.
	gate := make(chan struct{})
	hook.n.Run(func() { <-gate })
	for _, f := range []burstFrame{"a1", "a2", "a3"} {
		hook.n.Send(hook.n.ID(), f)
	}
	close(gate)
	select {
	case got := <-hook.done:
		want := []string{"a1", "a2", "a3", "run", "b1"}
		if !slices.Equal(got, want) {
			t.Fatalf("loop handled %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("burst never completed")
	}
}
