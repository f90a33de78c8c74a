package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"procgroup"
	"procgroup/internal/check"
	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/rsm"
)

// pass is one measured pass's results.
type pass struct {
	attempted, failed  int
	endToEnd, perLayer []metric
	// printed are end-to-end figures printed beside the result but not
	// in it: on a host with varying CPU steal they moved between runs by
	// more than any bound the result's metrics may carry (CPU per op,
	// latency tails, fenced-read latency, rejoin time), or they are zero
	// by design and act as gates (failed_frac, wrongful_exclusions).
	printed []metric
	spans   *spanLog
}

// tally collects one pass's measurements.
type tally struct {
	setupS       []float64
	setupRetries int

	attempted, failed, acked int
	late                     []float64
	rssMB                    float64
	writes, reads            []float64 // latencies of acked ops due in the timed windows
	cpuNs                    int64     // process CPU over the timed windows
	ackedInWindow            int
	kills                    []killRec
	coordKills               int
	certifyS                 float64
	loadNs                   int64

	// Group-level layer counters read before the group stops.
	sendQueueMax, dropped                 int64
	replica                               rsm.Stats
	exclusionMsgs, reconfigMsgs, installs int
}

// measure runs one pass and certifies it. On error it returns the op
// counts so far.
func measure(w workload, seed int64, seconds int, traced bool) (*pass, error) {
	clk := realClock{base: time.Now()}
	var p *probe
	setups := setupRuns
	if traced {
		p = newProbe(clk)
		setups = 1
	}
	t := &tally{}
	if err := measureGroup(w, seed, time.Duration(seconds)*time.Second, setups, clk, p, t); err != nil {
		return &pass{attempted: t.attempted, failed: t.failed}, err
	}
	res := &pass{attempted: t.attempted, failed: t.failed}
	var excl, outage, rejoin []float64
	for _, k := range t.kills {
		excl = append(excl, ms(k.excludedAt-k.killAt))
		outage = append(outage, ms(k.firstAckAt-k.killAt))
		rejoin = append(rejoin, ms(k.rejoinedAt-k.joinAt))
	}
	nw, nr, nk := len(t.writes), len(t.reads), len(t.kills)
	res.endToEnd = []metric{
		{"setup_s", median(t.setupS), "s", len(t.setupS)},
		{"write_p50_ms", quantile(t.writes, 0.5), "ms", nw},
		{"rss_peak_mb", t.rssMB, "MB", 1},
		{"exclusion_ms_p50", median(excl), "ms", nk},
		{"outage_ms_p50", median(outage), "ms", nk},
	}
	res.printed = []metric{
		{"cpu_us_per_op", float64(t.cpuNs) / 1e3 / float64(t.ackedInWindow), "us", t.ackedInWindow},
		{"write_p95_ms", quantile(t.writes, 0.95), "ms", nw},
		{"write_p99_ms", quantile(t.writes, 0.99), "ms", nw},
		{"read_p50_ms", quantile(t.reads, 0.5), "ms", nr},
		{"read_p95_ms", quantile(t.reads, 0.95), "ms", nr},
		{"read_p99_ms", quantile(t.reads, 0.99), "ms", nr},
		{"rejoin_ms_p50", median(rejoin), "ms", nk},
		{"failed_frac", float64(t.failed) / float64(t.attempted), "frac", t.attempted},
		{"wrongful_exclusions", 0, "count", nk},
	}
	fmt.Printf("pass traced=%v: attempted %d acked %d failed %d kills %d (coordinator %d) set-up retries %d generator late p99 %.3f ms max %.3f ms certify %.2f s\n",
		traced, t.attempted, t.acked, t.failed, nk, t.coordKills, t.setupRetries, quantile(t.late, 0.99), quantile(t.late, 1), t.certifyS)
	if traced {
		res.perLayer = perLayer(t, p)
		res.spans = &p.spans
	}
	return res, nil
}

// measureGroup boots a group (setups times, keeping the last), runs the
// load and kills, drains, certifies, and records the figures in t.
func measureGroup(w workload, seed int64, window time.Duration, setups int, clk realClock, p *probe, t *tally) error {
	var grp *group
	for i := 0; i < setups; i++ {
		quiesce()
		g, d, retries, err := startGroup(w, clk, p)
		t.setupRetries += retries
		if err != nil {
			return err
		}
		t.setupS = append(t.setupS, d.Seconds())
		if i < setups-1 {
			g.stop()
			continue
		}
		grp = g
	}
	defer grp.stop()

	for k := 0; k < keyCount; k++ {
		grp.keys = append(grp.keys, fmt.Sprintf("k%03d", k))
	}
	// The queue absorbs a generator running ahead of busy workers; a full
	// queue would stall the generator, which the lateness figures show.
	grp.readQ = make(chan *op, 1<<16)
	if w.localReads {
		for i := 0; i < readWorkers; i++ {
			grp.workers.Add(1)
			go grp.readWorker()
		}
	}
	lagStop, lagDone := make(chan struct{}), make(chan struct{})
	if p != nil {
		go p.probeLoops(lagPeriod, lagStop, lagDone)
	} else {
		close(lagDone)
	}
	quiesce()

	start := clk.now() + int64(time.Millisecond)
	gen := grp.startGenerator(seed, start)
	defer gen.halt()
	cpu0, err := cpuNs()
	if err != nil {
		return err
	}
	ticks0, steal0 := cpuSteal()
	var killErr error
	if w.windowKills > 0 {
		period := int64(window) / int64(w.windowKills)
		for k := 0; k < w.windowKills && killErr == nil; k++ {
			sleepUntil(clk, start+int64(k)*period+period/4)
			killErr = grp.killAndRejoin()
		}
	}
	sleepUntil(clk, start+int64(window))
	windowEnd := clk.now()
	cpu1, err := cpuNs()
	if err != nil {
		return err
	}
	ticks1, steal1 := cpuSteal()
	rss, err := rssMB()
	if err != nil {
		return err
	}
	for k := 0; k < w.tailKills && killErr == nil; k++ {
		killErr = grp.killAndRejoin()
	}
	loadEnd := clk.now()
	gen.halt()
	close(grp.readQ)
	grp.workers.Wait()
	grp.drain(opTimeout)
	close(lagStop)
	<-lagDone

	ops := make([]*op, grp.ops.n)
	for i := range ops {
		ops[i] = grp.ops.at(i)
		if ops[i].state.Load() != opAcked {
			t.failed++
		}
	}
	t.attempted += len(ops)
	if killErr != nil {
		return killErr
	}
	if err := grp.settle(waitTimeout); err != nil {
		return err
	}
	certStart := time.Now()
	if err := grp.certify(ops); err != nil {
		return fmt.Errorf("certification: %w", err)
	}
	t.certifyS += time.Since(certStart).Seconds()
	if wr := grp.views.wrongful(grp.killed); wr != 0 {
		return fmt.Errorf("%d wrongful exclusions", wr)
	}

	grp.timeKills()
	for i := range grp.kills {
		k := &grp.kills[i]
		if k.excludedAt < 0 || k.rejoinedAt < 0 || k.joinerAt < 0 {
			return fmt.Errorf("the trace lacks the installs of kill %d (%v)", i+1, k.victim)
		}
		// Writes need stability, so the first put acked after the kill
		// ends the outage; a fenced read of already-stable state may
		// complete straight through it.
		for _, o := range ops {
			if o.kind == opPut && o.due > k.killAt && o.state.Load() == opAcked && (k.firstAckAt < 0 || o.complete < k.firstAckAt) {
				k.firstAckAt = o.complete
			}
		}
		if k.firstAckAt < 0 {
			return fmt.Errorf("no put due after the kill of %v was acked", k.victim)
		}
	}

	// CPU covers the timed window: all of churn-failover's, the kv
	// workloads' up to their tail kills. Latency covers the ops due in it
	// outside failover windows (kill → first put ack), which
	// outage_ms_p50 measures; mixed in, a run's handful of outages
	// would set the quantiles.
	inFailover := func(o *op) bool {
		for _, k := range grp.kills {
			if o.due >= k.killAt && o.due <= k.firstAckAt {
				return true
			}
		}
		return false
	}
	acked, ackedInWindow, failover := 0, 0, 0
	var writes, reads []float64
	for _, o := range ops {
		t.late = append(t.late, ms(o.issued-o.due))
		if o.state.Load() != opAcked {
			continue
		}
		acked++
		if o.due >= windowEnd {
			continue
		}
		ackedInWindow++
		if inFailover(o) {
			failover++
			continue
		}
		if o.kind == opPut {
			writes = append(writes, ms(o.complete-o.due))
		} else {
			reads = append(reads, ms(o.complete-o.due))
		}
	}
	if len(writes) == 0 || len(reads) == 0 {
		return errors.New("no acked writes or reads in the timed window")
	}
	cpu := float64(cpu1-cpu0) / 1e3 / float64(ackedInWindow)
	wp50, wp99 := quantile(writes, 0.5), quantile(writes, 0.99)
	rp50, rp99 := quantile(reads, 0.5), quantile(reads, 0.99)
	fmt.Printf("window: %d ops (%d due in failover windows); write p50 %.3f p99 %.3f ms (n=%d); read p50 %.3f p99 %.3f ms (n=%d); %.1f us/op; rss %.0f MB; %d kills; steal %.1f%%\n",
		len(ops), failover, wp50, wp99, len(writes), rp50, rp99, len(reads), cpu, rss, len(grp.kills), 100*ratio(steal1-steal0, float64(ticks1-ticks0)))
	t.writes = append(t.writes, writes...)
	t.reads = append(t.reads, reads...)
	t.cpuNs += cpu1 - cpu0
	t.ackedInWindow += ackedInWindow
	t.acked += acked
	t.rssMB = max(t.rssMB, rss)
	t.kills = append(t.kills, grp.kills...)
	t.coordKills += grp.coordKills
	t.loadNs += loadEnd - start

	ts := grp.g.TransportStats()
	t.sendQueueMax = max(t.sendQueueMax, ts.SendQueueMax)
	t.dropped += ts.Dropped()
	t.replica = t.replica.Add(grp.set.Stats())
	rec := grp.g.Recorder()
	t.exclusionMsgs += rec.MessagesSent(core.ExclusionLabels...)
	t.reconfigMsgs += rec.MessagesSent(core.ReconfigLabels...)
	t.installs += grp.views.installs()
	return nil
}

// certify runs the checkers over the whole run: GMP properties on the
// membership trace, one total order across every replica, and
// linearizability of every acked client op (fenced local reads placed at
// their fence) against that order. It also requires the full group to
// be running at the end.
func (grp *group) certify(ops []*op) error {
	running := grp.g.Running()
	if len(running) != groupN {
		return fmt.Errorf("%d members running at the end, want %d", len(running), groupN)
	}
	rep := check.Run(check.Input{
		Recorder: grp.g.Recorder(),
		Initial:  procgroup.Processes(groupN),
		Alive:    ids.NewSet(running...).Has,
	})
	if !rep.OK() {
		return fmt.Errorf("GMP: %v", rep)
	}
	seqs := grp.set.Recorder().Sequences()
	if err := rsm.CheckTotalOrder(seqs, running); err != nil {
		return fmt.Errorf("total order: %w", err)
	}
	// The reference order is the longest survivor log: the kill schedule
	// keeps one original member alive, whose log starts at the first
	// command.
	alive := make(map[procgroup.ProcID][]rsm.Record, len(running))
	for _, p := range running {
		alive[p] = seqs[p]
	}
	var client []rsm.ClientOp
	for _, o := range ops {
		if o.state.Load() != opAcked {
			continue
		}
		client = append(client, rsm.ClientOp{
			Write:    o.kind == opPut,
			Key:      grp.keys[o.key],
			Val:      o.val,
			Origin:   o.home.id,
			PubID:    o.pubID,
			Invoke:   o.invoke,
			Complete: o.complete,
			Acked:    true,
			Local:    o.local,
			Fence:    o.fence,
		})
	}
	if err := rsm.CheckKVLinearizable(client, rsm.LongestApplied(alive)); err != nil {
		return fmt.Errorf("linearizability: %w", err)
	}
	return nil
}

// perLayer computes the traced pass's per-layer metrics. Ratios with no
// base (no local reads on kv-write, say) read 0.
func perLayer(t *tally, p *probe) []metric {
	var detect, agree, join, rejoin, resume []float64
	for _, k := range t.kills {
		rejoin = append(rejoin, ms(k.rejoinedAt-k.joinAt))
		if k.suspectedAt >= 0 {
			detect = append(detect, ms(k.suspectedAt-k.killAt))
			agree = append(agree, ms(k.excludedAt-k.suspectedAt))
		}
		join = append(join, ms(k.joinerAt-k.joinAt))
		resume = append(resume, ms(k.firstAckAt-k.excludedAt))
	}
	p.mu.Lock()
	lag := append([]float64(nil), p.lagMs...)
	install := append([]float64(nil), p.installMs...)
	readCall := append([]float64(nil), p.readCallMs...)
	p.mu.Unlock()
	p.spans.mu.Lock()
	spans := len(p.spans.spans)
	p.spans.mu.Unlock()

	bs := t.replica.Broadcast
	a := float64(t.acked)
	updates := 2 * len(t.kills) // each kill is one exclusion and one join
	n := func(c *atomic.Int64) int { return int(c.Load()) }
	return []metric{
		{"transport.stream.sends_per_op", ratio(p.stream.sends.Load(), a), "count", t.acked},
		{"transport.stream.delivers_per_op", ratio(p.stream.delivers.Load(), a), "count", t.acked},
		{"transport.stream.send_ns", ratio(p.stream.sendNs.Load(), float64(p.stream.sends.Load())), "ns", n(&p.stream.sends)},
		{"transport.send_queue_max", float64(t.sendQueueMax), "count", 1},
		{"transport.beacon.sends_per_s", ratio(p.beacon.sends.Load(), float64(t.loadNs)/1e9), "1/s", n(&p.beacon.sends)},
		{"transport.dropped", float64(t.dropped), "count", 1},
		{"live.loop_lag_ms_p50", orZero(quantile(lag, 0.5)), "ms", len(lag)},
		{"live.loop_lag_ms_p99", orZero(quantile(lag, 0.99)), "ms", len(lag)},
		{"live.installs", float64(t.installs), "count", 1},
		{"fd.detect_ms_p50", orZero(median(detect)), "ms", len(detect)},
		{"fd.observe_beacon_ns", ratio(p.beaconObsNs.Load(), float64(p.beaconObs.Load())), "ns", n(&p.beaconObs)},
		{"fd.suspect_ns", ratio(p.suspectNs.Load(), float64(p.suspectCalls.Load())), "ns", n(&p.suspectCalls)},
		{"fd.crossings", float64(p.hyst.Crossings.Load()), "count", 1},
		{"fd.mistakes", float64(p.hyst.Mistakes.Load()), "count", 1},
		{"core.agree_ms_p50", orZero(median(agree)), "ms", len(agree)},
		{"core.msgs_per_exclusion", ratio(int64(t.exclusionMsgs), float64(updates)), "count", updates},
		{"core.msgs_per_reconfig", ratio(int64(t.reconfigMsgs), float64(t.coordKills)), "count", t.coordKills},
		{"core.join_ms_p50", orZero(median(join)), "ms", len(join)},
		{"core.rejoin_ms_p50", orZero(median(rejoin)), "ms", len(rejoin)},
		{"broadcast.handle_app_self_ns_per_op", ratio(p.handleAppSelf.Load(), a), "ns", n(&p.handleApps)},
		{"broadcast.entries_per_batch", ratio(int64(bs.Sequenced), float64(bs.SeqdBatches)), "count", int(bs.SeqdBatches)},
		{"broadcast.acks_per_op", ratio(int64(bs.AcksSent), a), "count", t.acked},
		{"broadcast.stable_piggyback_frac", ratio(int64(bs.StablePiggybacked), float64(bs.StablePiggybacked+bs.StableBroadcasts)), "frac", int(bs.StablePiggybacked + bs.StableBroadcasts)},
		{"broadcast.fences_immediate_frac", ratio(int64(bs.FencesImmediate), float64(bs.Fences)), "frac", int(bs.Fences)},
		{"broadcast.install_ms", orZero(median(install)), "ms", len(install)},
		{"broadcast.resume_ms", orZero(median(resume)), "ms", len(resume)},
		{"broadcast.resubmits", float64(bs.Resubmits), "count", 1},
		{"rsm.apply_ns", ratio(p.applyNs.Load(), float64(p.applies.Load())), "ns", n(&p.applies)},
		{"rsm.propose_call_ns", ratio(p.proposeNs.Load(), float64(p.proposeCalls.Load())), "ns", n(&p.proposeCalls)},
		{"rsm.read_call_ms_p50", orZero(median(readCall)), "ms", len(readCall)},
		{"rsm.read_fallback_frac", ratio(int64(t.replica.ReadFallbacks), float64(t.replica.LocalReads+t.replica.ReadFallbacks)), "frac", int(t.replica.LocalReads + t.replica.ReadFallbacks)},
		{"rsm.snapshot_bytes", ratio(p.snapshotBytes.Load(), float64(p.snapshots.Load())), "B", n(&p.snapshots)},
		{"rsm.restore_ms", ratio(p.restoreNs.Load(), 1e6*float64(p.restores.Load())), "ms", n(&p.restores)},
		{"check.certify_s", t.certifyS, "s", 1},
		{"gen.late_ms_p99", quantile(t.late, 0.99), "ms", len(t.late)},
		{"gen.late_ms_max", quantile(t.late, 1), "ms", len(t.late)},
		{"setup.retries", float64(t.setupRetries), "count", len(t.setupS)},
		{"trace.spans", float64(spans), "count", 1},
	}
}
