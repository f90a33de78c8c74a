package main

// Per-layer measurement from outside the program. A traced run wraps
// the public interface of each layer — the transport planes, the
// failure-detector factory, the application hook the replica set
// installs, the replicated state machine, and the client calls into
// rsm — and times every call crossing it. The wrappers forward each call
// unchanged, so the traced group runs the same program as the untraced
// one; the cost of the timing itself is reported as the tracing
// overhead.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"procgroup"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/member"
	"procgroup/internal/rsm"
	"procgroup/internal/transport"
)

// traceEvery samples spans: every traceEvery-th client op gets a kv.op
// root span with its children, and every traceEvery-th call of a
// batch-level boundary (a HandleApp, a stream send) gets a span of its
// own. Counters and timers still see every call; sampling only bounds
// the span log's memory, which would otherwise hold millions of spans
// per run and distort the heap being measured.
const traceEvery = 16

// maxSpans caps the in-memory span log; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

// probe collects one traced group's per-layer counters and spans.
type probe struct {
	clk   realClock
	spans spanLog

	stream, beacon planeCounters

	hyst                      fd.HysteresisStats
	beaconObs, beaconObsNs    atomic.Int64
	suspectCalls, suspectNs   atomic.Int64
	handleApps, handleAppSelf atomic.Int64
	applies, applyNs          atomic.Int64
	snapshots, snapshotBytes  atomic.Int64
	restores, restoreNs       atomic.Int64
	proposeCalls, proposeNs   atomic.Int64
	handleAppSeen, streamSeen atomic.Int64 // span sampling counters

	mu           sync.Mutex
	firstSuspect map[ids.ProcID]int64 // surfaced suspicion of q, earliest at any member
	nodes        []*nodeProbe
	pending      *nodeProbe // the node whose factory call is in progress
	lagMs        []float64
	installMs    []float64
	readCallMs   []float64
}

func newProbe(clk realClock) *probe {
	return &probe{clk: clk, firstSuspect: make(map[ids.ProcID]int64)}
}

// reset clears the per-group state before the probe wraps a new group;
// counters keep accumulating across the groups a pass boots.
func (p *probe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nodes = nil
	p.firstSuspect = make(map[ids.ProcID]int64)
}

// transport builds the traced two-plane substrate. The taps sit inside
// NewTwoPlaneTransport, one per plane, so the group still sees a
// BeaconPlaner and keeps sending cadence-pure beacons on the datagram
// plane — wrapping the composite would hide that interface and switch
// the runtime to piggybacked beacons, a different program.
func (p *probe) transport() procgroup.Transport {
	stream := &tap{inner: procgroup.NewTCPTransport(), p: p, c: &p.stream, span: "transport.stream.send"}
	beacon := &tap{inner: procgroup.NewUDPTransport(), p: p, c: &p.beacon}
	return procgroup.NewTwoPlaneTransport(stream, beacon)
}

// detector wraps the group's detector factory; the hysteresis layer's
// shared stats land in p.hyst.
func (p *probe) detector(opts procgroup.HysteresisOptions) procgroup.DetectorFactory {
	opts.Stats = &p.hyst
	inner := procgroup.NewHysteresisDetector(procgroup.NewFixedTimeoutDetector(suspectAfter), opts)
	return func() fd.Detector { return &tracedDetector{inner: inner(), p: p} }
}

// replicaSet builds the KV replica set with every replica's state
// machine wrapped. It matches NewReplicatedKV except for the wrapper.
func (p *probe) replicaSet() *procgroup.ReplicaSet {
	return procgroup.NewReplicaSet(func() procgroup.StateMachine {
		return &tracedMachine{inner: rsm.NewKV(), p: p, np: p.pending}
	})
}

// factory wraps the replica set's hook factory: it records each member's
// AppNode for the loop-lag probe and times the hook's two entry points.
// The live runtime calls factories one at a time under its own lock, so
// p.pending names the node whose state machine the inner factory builds.
func (p *probe) factory(inner procgroup.AppHookFactory) procgroup.AppHookFactory {
	return func(n procgroup.AppNode) procgroup.AppHook {
		np := &nodeProbe{an: n}
		p.mu.Lock()
		p.pending = np
		p.mu.Unlock()
		h := inner(n)
		p.mu.Lock()
		p.pending = nil
		p.nodes = append(p.nodes, np)
		p.mu.Unlock()
		return &tracedHook{inner: h, p: p, np: np}
	}
}

// probeLoops posts a timestamped closure onto every member's event loop
// each period until stop closes, recording how long each waited to run.
func (p *probe) probeLoops(period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		p.mu.Lock()
		nodes := append([]*nodeProbe(nil), p.nodes...)
		p.mu.Unlock()
		for _, np := range nodes {
			posted := p.clk.now()
			np.an.Run(func() {
				lag := ms(p.clk.now() - posted)
				p.mu.Lock()
				p.lagMs = append(p.lagMs, lag)
				p.mu.Unlock()
			})
		}
	}
}

// suspectedAt is the earliest surfaced suspicion of q at any member, or
// -1 if none surfaced.
func (p *probe) suspectedAt(q ids.ProcID) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.firstSuspect[q]; ok {
		return t
	}
	return -1
}

// nodeProbe is one member's loop handle and its loop-owned apply timer:
// Apply runs nested inside HandleApp on the same event loop, so the hook
// wrapper subtracts the apply time accumulated during its call to get
// the broadcast layer's self time.
type nodeProbe struct {
	an      procgroup.AppNode
	applyNs int64 // event-loop owned
}

// planeCounters are one transport plane's traffic counters.
type planeCounters struct {
	sends, sendNs, delivers atomic.Int64
}

// tap is a Transport decorator counting and timing one plane's sends
// and the deliveries its handlers receive.
type tap struct {
	inner procgroup.Transport
	p     *probe
	c     *planeCounters
	span  string // span name for sampled sends; "" records none
}

func (t *tap) Register(id ids.ProcID, h transport.Handler) error {
	return t.inner.Register(id, func(from ids.ProcID, m transport.Message) {
		t.c.delivers.Add(1)
		h(from, m)
	})
}

func (t *tap) Unregister(id ids.ProcID) { t.inner.Unregister(id) }

func (t *tap) Send(from, to ids.ProcID, m transport.Message) {
	start := t.p.clk.now()
	t.inner.Send(from, to, m)
	end := t.p.clk.now()
	t.c.sends.Add(1)
	t.c.sendNs.Add(end - start)
	if t.span != "" && t.p.streamSeen.Add(1)%traceEvery == 0 {
		t.p.spans.add(span{Name: t.span, Start: start, End: end})
	}
}

func (t *tap) Stats() transport.Stats { return t.inner.Stats() }
func (t *tap) Close() error           { return t.inner.Close() }

// tracedDetector times the calls the live runtime makes into one
// member's detector and notes when a suspicion first surfaces.
type tracedDetector struct {
	inner fd.Detector
	p     *probe
}

func (d *tracedDetector) Observe(q ids.ProcID, at time.Time) { d.inner.Observe(q, at) }

func (d *tracedDetector) ObserveBeacon(q ids.ProcID, at time.Time) {
	start := d.p.clk.now()
	d.inner.ObserveBeacon(q, at)
	d.p.beaconObsNs.Add(d.p.clk.now() - start)
	d.p.beaconObs.Add(1)
}

func (d *tracedDetector) Suspicion(q ids.ProcID, at time.Time) float64 {
	return d.inner.Suspicion(q, at)
}

func (d *tracedDetector) Suspect(q ids.ProcID, at time.Time) bool {
	start := d.p.clk.now()
	s := d.inner.Suspect(q, at)
	end := d.p.clk.now()
	d.p.suspectNs.Add(end - start)
	d.p.suspectCalls.Add(1)
	if s {
		d.p.mu.Lock()
		if _, seen := d.p.firstSuspect[q]; !seen {
			d.p.firstSuspect[q] = end
			d.p.spans.add(span{Name: "fd.suspect", Start: start, End: end})
		}
		d.p.mu.Unlock()
	}
	return s
}

func (d *tracedDetector) Rearm(q ids.ProcID, at time.Time) { d.inner.Rearm(q, at) }
func (d *tracedDetector) Retain(members []ids.ProcID)      { d.inner.Retain(members) }

// tracedHook times the broadcast layer's two entry points on one member.
type tracedHook struct {
	inner procgroup.AppHook
	p     *probe
	np    *nodeProbe
}

func (h *tracedHook) HandleApp(from ids.ProcID, payload any) {
	nested := h.np.applyNs
	start := h.p.clk.now()
	h.inner.HandleApp(from, payload)
	end := h.p.clk.now()
	h.p.handleAppSelf.Add(end - start - (h.np.applyNs - nested))
	h.p.handleApps.Add(1)
	if h.p.handleAppSeen.Add(1)%traceEvery == 0 {
		h.p.spans.add(span{Name: "broadcast.handle_app", Start: start, End: end})
	}
}

func (h *tracedHook) HandleInstall(ver member.Version, members []ids.ProcID) {
	start := h.p.clk.now()
	h.inner.HandleInstall(ver, members)
	end := h.p.clk.now()
	h.p.mu.Lock()
	h.p.installMs = append(h.p.installMs, ms(end-start))
	h.p.spans.add(span{Name: "broadcast.install", Start: start, End: end})
	h.p.mu.Unlock()
}

// tracedMachine times the replicated state machine. It keeps the KV's
// LocalReader so fenced local reads take the same path as untraced.
type tracedMachine struct {
	inner *rsm.KV
	p     *probe
	np    *nodeProbe
}

func (m *tracedMachine) Apply(cmd []byte) []byte {
	start := m.p.clk.now()
	out := m.inner.Apply(cmd)
	end := m.p.clk.now()
	m.np.applyNs += end - start
	m.p.applyNs.Add(end - start)
	m.p.applies.Add(1)
	// A put's value is "v<op index>", unique per op: it links the apply
	// to the client op's root span.
	if write, _, val, ok := rsm.DecodeCmd(cmd); ok && write && len(val) > 1 {
		if i, err := strconv.Atoi(val[1:]); err == nil && i%traceEvery == 0 {
			m.p.spans.add(span{Name: "rsm.apply", Parent: rootSpan(i), Start: start, End: end})
		}
	}
	return out
}

func (m *tracedMachine) Snapshot() []byte {
	start := m.p.clk.now()
	b := m.inner.Snapshot()
	m.p.snapshots.Add(1)
	m.p.snapshotBytes.Add(int64(len(b)))
	m.p.spans.add(span{Name: "rsm.snapshot", Start: start, End: m.p.clk.now()})
	return b
}

func (m *tracedMachine) Restore(snap []byte) {
	start := m.p.clk.now()
	m.inner.Restore(snap)
	end := m.p.clk.now()
	m.p.restores.Add(1)
	m.p.restoreNs.Add(end - start)
	m.p.spans.add(span{Name: "rsm.restore", Start: start, End: end})
}

func (m *tracedMachine) ReadLocal(cmd []byte) ([]byte, bool) { return m.inner.ReadLocal(cmd) }

// span is one timed call at a layer boundary, ns on the run's clock.
// Parent 0 is a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan is client op i's kv.op span id; other spans number from
// firstSpanID up so the two ranges never meet.
func rootSpan(i int) uint64 { return uint64(i) + 1 }

const firstSpanID = 1 << 40

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu      sync.Mutex
	next    uint64
	spans   []span
	dropped int64
}

// add records s, assigning an id unless it already has one.
func (l *spanLog) add(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.ID == 0 {
		l.next++
		s.ID = firstSpanID + l.next
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// write dumps the spans as JSON lines into dir/name.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, f.Close()
}
