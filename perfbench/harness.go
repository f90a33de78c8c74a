package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"procgroup"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/rsm"
)

// The fixed group configuration every workload runs: the headline
// configuration of the repository's replicated-KV experiment.
const (
	groupN       = 5
	heartbeat    = 10 * time.Millisecond
	suspectAfter = 80 * time.Millisecond
	dwell        = 120 * time.Millisecond
	batchEntries = 128
	ackEvery     = 16

	keyCount    = 256
	opTimeout   = 20 * time.Second
	waitTimeout = 15 * time.Second
	// readWorkers bounds the goroutines running blocking fenced reads;
	// at 18k reads/s and a few ms per read a few dozen are busy at once.
	readWorkers = 128
	// lagPeriod is the cadence of the event-loop lag probe.
	lagPeriod = 5 * time.Millisecond
)

type opKind uint8

const (
	opPut       opKind = iota
	opGet              // sequenced KVGet through ProposeAsync
	opLocalRead        // Read(…, ReadLocal): fenced local read
)

// Op states.
const (
	opPending uint32 = iota
	opAcked
	opFailed
)

// op is one client operation and what became of it. Times are ns on the
// run's clock. The issuing goroutine fills the request fields; the
// completion path fills the result fields and then publishes state, so a
// reader that sees a final state may read every field.
type op struct {
	kind     opKind
	key      int
	home     *home
	due      int64
	issued   int64 // when the generator handled it; issued − due is its lateness
	invoke   int64
	complete int64
	pubID    uint64
	local    bool
	fence    rsm.CmdID
	val      string
	state    atomic.Uint32
}

// home is a group member clients send ops to.
type home struct {
	id  procgroup.ProcID
	rep *procgroup.Replica
	// outstanding counts ops issued here and not yet completed; retired
	// stops new ones. A member is retired and drained before it is
	// killed, so the kill schedule itself fails no op.
	outstanding atomic.Int64
	retired     atomic.Bool
}

// opLog stores ops in fixed chunks so pointers to issued ops stay valid
// while the generator appends. Only the generator appends.
type opLog struct {
	chunks [][]op
	n      int
}

const opChunk = 1 << 14

func (l *opLog) next() *op {
	if l.n%opChunk == 0 {
		l.chunks = append(l.chunks, make([]op, opChunk))
	}
	o := &l.chunks[l.n/opChunk][l.n%opChunk]
	l.n++
	return o
}

func (l *opLog) at(i int) *op { return &l.chunks[i/opChunk][i%opChunk] }

// killRec is one kill-and-rejoin cycle. Times are ns on the run's clock;
// -1 marks an instant that did not happen.
type killRec struct {
	victim, joiner procgroup.ProcID
	survivors      []procgroup.ProcID
	killAt         int64
	excludedAt     int64 // last survivor installed a view without the victim
	suspectedAt    int64 // first surfaced suspicion of the victim (traced runs)
	joinAt         int64
	joinerAt       int64 // the joiner installed its first view
	rejoinedAt     int64 // last member installed a view with the joiner
	firstAckAt     int64 // first ack of a put due after killAt
}

// group is one live 5-member replicated KV group with its client state.
type group struct {
	w     workload
	clk   realClock
	p     *probe // nil when untraced
	set   *procgroup.ReplicaSet
	g     *procgroup.Group
	views *viewLog
	keys  []string
	homes atomic.Pointer[[]*home]

	ops      opLog
	inflight atomic.Int64
	readQ    chan *op
	workers  sync.WaitGroup

	kills      []killRec
	killed     ids.Set
	coordKills int
}

// setupOpTimeout bounds a fresh group's first op. A boot that misses it
// is stopped and retried, and counted: a few percent of fresh groups
// never finish the broadcast layer's initial sync, and their first op
// would wait forever.
const setupOpTimeout = 2 * time.Second

// maxSetupAttempts bounds those retries.
const maxSetupAttempts = 3

// startGroup boots the group the way a user does and waits until it is
// ready to serve: a converged view, every replica spawned, and one op
// acked. It returns the time that took, from the first attempt, and how
// many attempts failed before one served.
func startGroup(w workload, clk realClock, p *probe) (*group, time.Duration, int, error) {
	begin := time.Now()
	for failed := 0; ; failed++ {
		grp, err := bootGroup(w, clk, p)
		if err == nil {
			return grp, time.Since(begin), failed, nil
		}
		if failed+1 == maxSetupAttempts {
			return nil, 0, failed + 1, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: set-up attempt %d: %v; booting a fresh group\n", failed+1, err)
	}
}

func bootGroup(w workload, clk realClock, p *probe) (*group, error) {
	grp := &group{w: w, clk: clk, p: p, killed: ids.NewSet()}
	hyst := procgroup.HysteresisOptions{Dwell: dwell, FlapPenalty: 1}
	opts := procgroup.GroupOptions{
		N:              groupN,
		HeartbeatEvery: heartbeat,
		SuspectAfter:   suspectAfter,
	}
	if p == nil {
		grp.set = procgroup.NewReplicatedKV()
		opts.Detector = procgroup.NewHysteresisDetector(procgroup.NewFixedTimeoutDetector(suspectAfter), hyst)
		opts.Transport = procgroup.NewUDPBeaconTransport(nil)
	} else {
		p.reset()
		grp.set = p.replicaSet()
		opts.Detector = p.detector(hyst)
		opts.Transport = p.transport()
	}
	grp.set.WithBatching(procgroup.BatchConfig{MaxEntries: batchEntries}, procgroup.AckConfig{Every: ackEvery})
	opts.App = grp.set.Factory()
	if p != nil {
		opts.App = p.factory(opts.App)
	}
	grp.g = procgroup.StartGroup(opts)
	grp.views = watchViews(grp.g, clk)

	v, err := grp.g.WaitConverged(waitTimeout)
	if err != nil {
		grp.stop()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	var hs []*home
	for _, id := range v.Members() {
		rep := grp.set.Replica(id)
		if rep == nil {
			grp.stop()
			return nil, fmt.Errorf("bootstrap: %v has no replica", id)
		}
		hs = append(hs, &home{id: id, rep: rep})
	}
	grp.homes.Store(&hs)
	if _, err := grp.set.Propose(hs[0].id, procgroup.KVPut("setup", "0"), setupOpTimeout); err != nil {
		grp.stop()
		return nil, fmt.Errorf("bootstrap: first op: %w", err)
	}
	return grp, nil
}

func (grp *group) stop() {
	grp.g.Stop()
	grp.views.close()
}

// pickHome returns the i-th live home round-robin, with one op
// registered on it. Registering before checking retired pairs with
// retire's store-then-drain, so an op either lands before the drain
// starts or is routed elsewhere.
func (grp *group) pickHome(i int) *home {
	for {
		hs := *grp.homes.Load()
		h := hs[i%len(hs)]
		h.outstanding.Add(1)
		if !h.retired.Load() {
			return h
		}
		h.outstanding.Add(-1)
		i++
	}
}

// generator is one running open-loop generator goroutine.
type generator struct {
	stop atomic.Bool
	done chan struct{}
}

// startGenerator starts issuing ops at the benchmark's rate from start
// on, until halted. The op mix and keys come from seed.
func (grp *group) startGenerator(seed int64, start int64) *generator {
	gen := &generator{done: make(chan struct{})}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	go func() {
		defer close(gen.done)
		pace(grp.clk, schedule{rate: rate}, start, gen.stop.Load, func(i int, due, now int64) {
			o := grp.ops.next()
			o.due, o.issued = due, now
			o.key = rng.IntN(keyCount)
			o.kind = opPut
			if rng.Float64() < grp.w.readFrac {
				o.kind = opGet
				if grp.w.localReads {
					o.kind = opLocalRead
				}
			}
			o.home = grp.pickHome(i)
			grp.inflight.Add(1)
			if o.kind == opLocalRead {
				grp.readQ <- o
				return
			}
			grp.propose(i, o)
		})
	}()
	return gen
}

// halt stops the generator and waits for it to exit.
func (gen *generator) halt() {
	gen.stop.Store(true)
	<-gen.done
}

// propose issues a put or sequenced get without blocking; completion
// arrives on the home member's event loop.
func (grp *group) propose(i int, o *op) {
	var cmd []byte
	if o.kind == opPut {
		o.val = "v" + strconv.Itoa(i)
		cmd = procgroup.KVPut(grp.keys[o.key], o.val)
	} else {
		cmd = procgroup.KVGet(grp.keys[o.key])
	}
	traced := grp.p != nil && i%traceEvery == 0
	o.invoke = grp.clk.now()
	o.home.rep.ProposeAsync(cmd, func(resp []byte, pubID uint64, err error) {
		o.complete = grp.clk.now()
		o.pubID = pubID
		if o.kind == opGet {
			o.val = string(resp)
		}
		grp.finish(o, err)
		if traced {
			grp.p.spans.add(span{ID: rootSpan(i), Name: "kv.op", Start: o.due, End: o.complete})
		}
	})
	if grp.p != nil {
		end := grp.clk.now()
		grp.p.proposeCalls.Add(1)
		grp.p.proposeNs.Add(end - o.invoke)
		if traced {
			grp.p.spans.add(span{Parent: rootSpan(i), Name: "rsm.propose", Start: o.invoke, End: end})
		}
	}
}

// readWorker serves fenced local reads, which block until the fence
// releases, so they cannot run on the generator goroutine.
func (grp *group) readWorker() {
	defer grp.workers.Done()
	for o := range grp.readQ {
		o.invoke = grp.clk.now()
		res, err := o.home.rep.Read(procgroup.KVGet(grp.keys[o.key]), procgroup.ReadLocal, opTimeout)
		o.complete = grp.clk.now()
		o.val = string(res.Resp)
		o.local = res.Local
		o.fence = res.Fence
		o.pubID = res.PubID
		grp.finish(o, err)
		if grp.p != nil {
			grp.p.mu.Lock()
			grp.p.readCallMs = append(grp.p.readCallMs, ms(o.complete-o.invoke))
			grp.p.mu.Unlock()
		}
	}
}

func (grp *group) finish(o *op, err error) {
	st := opAcked
	if err != nil {
		st = opFailed
	}
	o.state.Store(st)
	o.home.outstanding.Add(-1)
	grp.inflight.Add(-1)
}

// currentView waits for convergence and returns the agreed membership in
// seniority order (coordinator first).
func (grp *group) currentView() ([]procgroup.ProcID, error) {
	v, err := grp.g.WaitConverged(waitTimeout)
	if err != nil {
		return nil, err
	}
	return v.Members(), nil
}

// killAndRejoin crashes one member and brings its site back under a
// fresh incarnation, timing each step. The victim is the most junior
// non-coordinator or, alternately when the workload kills coordinators,
// the coordinator, at most n−2 times per group:
// coordinators die oldest first, so the cap keeps one original member
// alive, and its log, the only one starting at the first command, is the
// reference order the linearizability check needs.
func (grp *group) killAndRejoin() error {
	members, err := grp.currentView()
	if err != nil {
		return fmt.Errorf("before kill %d: %w", len(grp.kills)+1, err)
	}
	rec := killRec{suspectedAt: -1, firstAckAt: -1}
	if grp.w.coordKills && len(grp.kills)%2 == 1 && grp.coordKills < groupN-2 {
		rec.victim = members[0]
		grp.coordKills++
	} else {
		rec.victim = members[len(members)-1]
	}

	// Route clients away and let the victim's ops complete.
	hs := *grp.homes.Load()
	var rest []*home
	var victim *home
	for _, h := range hs {
		if h.id == rec.victim {
			victim = h
		} else {
			rest = append(rest, h)
		}
	}
	grp.homes.Store(&rest)
	if victim != nil {
		victim.retired.Store(true)
		deadline := time.Now().Add(waitTimeout)
		for victim.outstanding.Load() > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("victim %v never drained", rec.victim)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rec.killAt = grp.clk.now()
	grp.killed.Add(rec.victim)
	grp.g.Kill(rec.victim)
	survivors := grp.g.Running()
	if !grp.views.waitAll(survivors, rec.killAt, func(ms []procgroup.ProcID) bool { return !has(ms, rec.victim) }) {
		return fmt.Errorf("victim %v not excluded within %v; latest views:%s", rec.victim, waitTimeout, grp.views.latest(survivors))
	}
	rec.survivors = survivors
	if grp.p != nil {
		rec.suspectedAt = grp.p.suspectedAt(rec.victim)
	}

	rec.joiner = procgroup.ProcID{Site: rec.victim.Site, Incarnation: rec.victim.Incarnation + 1}
	contact, err := grp.currentView()
	if err != nil {
		return fmt.Errorf("after kill of %v: %w", rec.victim, err)
	}
	rec.joinAt = grp.clk.now()
	grp.g.Join(rec.joiner, contact[0])
	all := append(append([]procgroup.ProcID(nil), survivors...), rec.joiner)
	if !grp.views.waitAll(all, rec.joinAt, func(ms []procgroup.ProcID) bool { return has(ms, rec.joiner) }) {
		return fmt.Errorf("joiner %v not admitted within %v; latest views:%s", rec.joiner, waitTimeout, grp.views.latest(all))
	}
	rep := grp.set.Replica(rec.joiner)
	if rep == nil {
		return fmt.Errorf("joiner %v has no replica", rec.joiner)
	}
	// Clients move onto the joiner only once it has acked a put, which
	// it can do only after its state transfer: before that a fenced local
	// read there returns the empty pre-snapshot state (see CHANGES.md).
	if _, _, err := rep.Propose(procgroup.KVPut("ready", rec.joiner.String()), waitTimeout); err != nil {
		return fmt.Errorf("joiner %v never served: %w", rec.joiner, err)
	}
	rest = append(rest, &home{id: rec.joiner, rep: rep})
	grp.homes.Store(&rest)
	grp.kills = append(grp.kills, rec)
	return nil
}

// timeKills fills in the kills' install times from the group's trace
// recorder, which stamps each install on the member's event loop. The
// view stream the kill loop waits on would add a goroutine wake-up, noise
// on a rejoin of about a millisecond.
func (grp *group) timeKills() {
	offset := int64(grp.g.StartedAt().Sub(grp.clk.base))
	type install struct {
		at      int64
		members []procgroup.ProcID
	}
	byProc := make(map[procgroup.ProcID][]install)
	for _, e := range grp.g.Recorder().Events() {
		if e.Kind == event.InstallView {
			byProc[e.Proc] = append(byProc[e.Proc], install{offset + e.Time*int64(time.Microsecond), e.Members})
		}
	}
	// last is the latest, over procs, of each one's first install at or
	// after since that satisfies ok; -1 if some proc has none.
	last := func(procs []procgroup.ProcID, since int64, ok func([]procgroup.ProcID) bool) int64 {
		var latest int64 = -1
		for _, p := range procs {
			found := false
			for _, in := range byProc[p] {
				// The recorder ticks in microseconds; an install in the
				// same microsecond as since still counts.
				if in.at >= since-int64(time.Microsecond) && ok(in.members) {
					latest, found = max(latest, in.at), true
					break
				}
			}
			if !found {
				return -1
			}
		}
		return latest
	}
	for i := range grp.kills {
		k := &grp.kills[i]
		k.excludedAt = last(k.survivors, k.killAt, func(ms []procgroup.ProcID) bool { return !has(ms, k.victim) })
		all := append(append([]procgroup.ProcID(nil), k.survivors...), k.joiner)
		k.rejoinedAt = last(all, k.joinAt, func(ms []procgroup.ProcID) bool { return has(ms, k.joiner) })
		k.joinerAt = last([]procgroup.ProcID{k.joiner}, k.joinAt, func([]procgroup.ProcID) bool { return true })
	}
}

// drain waits for every issued op to complete; ops still open at the
// deadline count as failed.
func (grp *group) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for grp.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

// settle waits until every running replica has applied the same last
// command and the group stopped applying.
func (grp *group) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	rec := grp.set.Recorder()
	last, still := -1, 0
	var fronts map[procgroup.ProcID]rsm.Frontier
	for time.Now().Before(deadline) {
		fronts = rec.Frontiers()
		ends := make(map[rsm.CmdID]bool)
		total := 0
		for _, p := range grp.g.Running() {
			f := fronts[p]
			if f.Applied > 0 {
				ends[f.Last] = true
			}
			total += f.Applied
		}
		if len(ends) <= 1 && total == last {
			if still++; still >= 5 {
				return nil
			}
		} else {
			still = 0
		}
		last = total
		time.Sleep(20 * time.Millisecond)
	}
	var b strings.Builder
	for _, p := range grp.g.Running() {
		fmt.Fprintf(&b, " %v applied %d last %v/%d;", p, fronts[p].Applied, fronts[p].Last.Origin, fronts[p].Last.PubID)
	}
	return fmt.Errorf("replicas did not settle within %v:%s", timeout, b.String())
}

func has(ms []procgroup.ProcID, p procgroup.ProcID) bool {
	for _, m := range ms {
		if m == p {
			return true
		}
	}
	return false
}

// viewLog records every install the group streams, stamped on arrival.
type viewLog struct {
	clk  realClock
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	recs []viewRec
}

type viewRec struct {
	proc    procgroup.ProcID
	ver     procgroup.Version
	members []procgroup.ProcID
	at      int64
}

func watchViews(g *procgroup.Group, clk realClock) *viewLog {
	l := &viewLog{clk: clk, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for {
			select {
			case <-l.stop:
				return
			case u := <-g.Updates():
				l.mu.Lock()
				l.recs = append(l.recs, viewRec{proc: u.Proc, ver: u.Ver, members: u.Members, at: clk.now()})
				l.mu.Unlock()
			}
		}
	}()
	return l
}

func (l *viewLog) close() {
	close(l.stop)
	<-l.done
}

// waitAll waits until every process in procs has installed, after since,
// a view satisfying ok, all of them the same version. The install times
// themselves come from the trace recorder later (timeKills).
func (l *viewLog) waitAll(procs []procgroup.ProcID, since int64, ok func([]procgroup.ProcID) bool) bool {
	deadline := time.Now().Add(waitTimeout)
	for time.Now().Before(deadline) {
		if l.allInstalled(procs, since, ok) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func (l *viewLog) allInstalled(procs []procgroup.ProcID, since int64, ok func([]procgroup.ProcID) bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[procgroup.ProcID]bool, len(procs))
	latest := make(map[procgroup.ProcID]procgroup.Version, len(procs))
	for _, r := range l.recs {
		if !has(procs, r.proc) {
			continue
		}
		latest[r.proc] = r.ver
		if r.at >= since && ok(r.members) {
			seen[r.proc] = true
		}
	}
	for _, p := range procs {
		if !seen[p] || latest[p] != latest[procs[0]] {
			return false
		}
	}
	return true
}

// latest describes each process's latest install, for error reports.
func (l *viewLog) latest(procs []procgroup.ProcID) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&b, " %v:", p)
		for i := len(l.recs) - 1; i >= 0; i-- {
			if r := l.recs[i]; r.proc == p {
				fmt.Fprintf(&b, "v%d%v", r.ver, r.members)
				break
			}
		}
	}
	return b.String()
}

// installs counts every install streamed so far.
func (l *viewLog) installs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// wrongful counts the members that some process's installs dropped
// although the benchmark never killed them.
func (l *viewLog) wrongful(killed ids.Set) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := make(map[procgroup.ProcID][]procgroup.ProcID)
	dropped := ids.NewSet()
	for _, r := range l.recs {
		for _, m := range prev[r.proc] {
			if !has(r.members, m) && !killed.Has(m) {
				dropped.Add(m)
			}
		}
		prev[r.proc] = r.members
	}
	return dropped.Len()
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// cpuSteal reads the machine's cumulative CPU ticks, total and stolen by
// the hypervisor, from /proc/stat. Steal is CPU time the benchmark wanted
// and did not get; the window line reports it to explain a noisy run.
func cpuSteal() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// rssMB is the process's resident set (VmRSS), in MB. Read at the end of
// a timed window it is the window's peak: the replicas' retained history
// only grows, and the runtime returns freed pages to the OS slowly.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("rss: no VmRSS in /proc/self/status")
}

// quiesce collects garbage left by a previous phase so it is not billed
// to the next one.
func quiesce() {
	runtime.GC()
}
