package main

import (
	"math"
	"testing"
	"time"

	"procgroup"
	"procgroup/internal/transport"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// fakeClock advances only when slept on, overshooting every sleep the
// way a loaded scheduler does, and charges each issue some time.
type fakeClock struct {
	t         int64
	overshoot time.Duration
}

func (c *fakeClock) now() int64            { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += int64(d + c.overshoot) }

func TestPaceNeverIssuesEarly(t *testing.T) {
	c := &fakeClock{t: 5, overshoot: 70 * time.Microsecond}
	s := schedule{rate: 20000}
	start := int64(1000)
	var dues []int64
	var late []int64
	n := pace(c, s, start, func() bool { return c.t >= start+int64(time.Second) }, func(i int, due, now int64) {
		if due != start+s.due(i) {
			t.Fatalf("op %d due %d, want %d", i, due, start+s.due(i))
		}
		if now < due {
			t.Fatalf("op %d issued at %d, before its due time %d", i, now, due)
		}
		c.t += 3000 // each issue costs 3µs
		dues = append(dues, due)
		late = append(late, now-due)
	})
	// pace checks stop between sleeps, so it may issue the ops due
	// during the last one before noticing.
	if n < 20000 || n > 20002 || len(dues) != n {
		t.Fatalf("issued %d ops in 1s at 20k/s, want 20000", n)
	}
	var worst int64
	for _, l := range late {
		worst = max(worst, l)
	}
	// An overshooting sleep delays the ops due during it, never by more
	// than the overshoot plus one issue per op caught up.
	if worst > int64(80*time.Microsecond) {
		t.Errorf("worst lateness %v, want at most 80µs", time.Duration(worst))
	}
}

func TestPaceStops(t *testing.T) {
	c := &fakeClock{}
	calls := 0
	n := pace(c, schedule{rate: 1000}, 0, func() bool { return calls >= 10 }, func(int, int64, int64) { calls++ })
	if n < 10 || n > 11 {
		t.Errorf("pace issued %d ops after stop at 10", n)
	}
}

// bootTraced boots a traced group for the wrapper tests.
func bootTraced(t *testing.T) (*group, *probe) {
	t.Helper()
	p := newProbe(realClock{base: time.Now()})
	w := workloads[0]
	grp, _, _, err := startGroup(w, p.clk, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(grp.stop)
	return grp, p
}

// The taps sit inside the two-plane transport, so the wrapped group must
// still see a beacon plane and send its beacons there.
func TestWrappedGroupBeaconsOnDatagramPlane(t *testing.T) {
	grp, p := bootTraced(t)
	if _, ok := grp.g.Transport().(transport.BeaconPlaner); !ok {
		t.Fatal("wrapped transport hides the beacon plane")
	}
	before := p.beacon.sends.Load()
	time.Sleep(20 * heartbeat)
	sent := p.beacon.sends.Load() - before
	// Five members beaconing to four peers every heartbeat: about 400
	// datagrams in 20 heartbeats; demand half to tolerate timer slack.
	if sent < 200 {
		t.Errorf("beacon plane carried %d sends in 20 heartbeats, want ≥ 200", sent)
	}
	if d := p.beacon.delivers.Load(); d == 0 {
		t.Error("no beacon was delivered")
	}
}

// The wrappers' counts must agree with the layers' own counters.
func TestWrapperCountsMatchLayerCounters(t *testing.T) {
	grp, p := bootTraced(t)
	ids := grp.g.Running()
	const puts = 200
	for i := 0; i < puts; i++ {
		if _, err := grp.set.Propose(ids[i%len(ids)], procgroup.KVPut("k", "v"), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := grp.settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := grp.set.Stats()
	if got, want := p.applies.Load(), int64(st.Broadcast.Applied); got != want {
		t.Errorf("state-machine wrapper saw %d applies, ReplicaSet.Stats says %d", got, want)
	}
	// One setup put plus the test's, applied at every member.
	if got := p.applies.Load(); got != (puts+1)*groupN {
		t.Errorf("%d applies, want %d", got, (puts+1)*groupN)
	}
	// Every stream frame sent is delivered or counted as dropped once the
	// frames still in flight (acks, stability) land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		dropped := grp.g.TransportStats().Dropped()
		sends, delivers := p.stream.sends.Load(), p.stream.delivers.Load()
		if sends > 0 && sends == delivers+dropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream plane: %d sends, %d delivers, %d dropped by TransportStats", sends, delivers, dropped)
		}
		time.Sleep(time.Millisecond)
	}
}
