package transport

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"procgroup/internal/channel"
	"procgroup/internal/ids"
	"procgroup/internal/sim"
)

// LossyOptions shapes the adversarial datagram link under a Lossy
// transport.
type LossyOptions struct {
	// Loss is the per-datagram drop probability (default 0.05).
	Loss float64
	// Dup is the per-datagram duplication probability (default 0.02).
	Dup float64
	// MinDelay/MaxDelay bound the per-datagram latency (default 1–4ms).
	MinDelay, MaxDelay time.Duration
	// RTO is the alternating-bit retransmission timeout (default 10ms).
	RTO time.Duration
	// Seed drives the loss/dup/delay randomness (default 1).
	Seed int64
}

func (o *LossyOptions) fill() {
	if o.Loss == 0 {
		o.Loss = 0.05
	}
	if o.Dup == 0 {
		o.Dup = 0.02
	}
	if o.MinDelay == 0 {
		o.MinDelay = time.Millisecond
	}
	if o.MaxDelay < o.MinDelay {
		o.MaxDelay = 4 * o.MinDelay
	}
	if o.RTO == 0 {
		o.RTO = 10 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Lossy is the paper's §3 substrate made concrete: an in-process datagram
// link that loses, duplicates and delays encoded frames, with the
// alternating-bit protocol of internal/channel layered per directed
// channel to restore the reliable FIFO property the protocol assumes.
// Where the channel package's own tests prove the ABP correct in
// isolation, this transport runs the whole GMP cluster over it — the
// "implementable rather than assumed" claim end-to-end.
//
// Every frame crosses the link as its encoded wire bytes (the same codec
// TCP uses), so a duplicated or delayed datagram is a real byte blob, not
// a shared pointer.
//
// All channel-machine state runs on a single event-loop goroutine driving
// a timestamp-ordered heap (a real-time analogue of sim.Scheduler). The
// loop is what makes the link non-reordering: the ABP's 1-bit sequence
// number only repairs loss and duplication, and independent OS timers with
// near-equal deadlines can fire out of order, so ordering must come from
// the heap, not from timer arrival.
type Lossy struct {
	opts  LossyOptions
	start time.Time

	mu       sync.Mutex
	rng      *rand.Rand
	handlers map[ids.ProcID]Handler
	links    map[chanKey]*lossyLink
	events   eventHeap
	seq      int64
	closed   bool
	stats    statCounters

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// lossyQueueDepth bounds one ABP sender's unacknowledged backlog; past it
// the channel is effectively down and further sends drop like datagrams.
const lossyQueueDepth = 1024

// lossyLink is one directed channel's ABP stack.
type lossyLink struct {
	send   func(any)
	sender *channel.Sender
}

// event is one scheduled callback; fn runs on the loop goroutine.
type event struct {
	at  sim.Time
	seq int64 // FIFO tiebreak among equal timestamps
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event   { return h[0] }

// NewLossy builds a lossy-datagram transport and starts its event loop.
func NewLossy(opts LossyOptions) *Lossy {
	opts.fill()
	t := &Lossy{
		opts:     opts,
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		handlers: make(map[ids.ProcID]Handler),
		links:    make(map[chanKey]*lossyLink),
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go t.loop()
	return t
}

// --- channel.Timeline over real time (one tick = one millisecond) -----------

// Now implements channel.Timeline.
func (t *Lossy) Now() sim.Time { return sim.Time(time.Since(t.start) / time.Millisecond) }

// At implements channel.Timeline: fn is queued on the event heap and runs
// on the loop goroutine, in (time, insertion) order.
func (t *Lossy) At(at sim.Time, fn func()) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.seq++
	heap.Push(&t.events, event{at: at, seq: t.seq, fn: fn})
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// After implements channel.Timeline.
func (t *Lossy) After(d sim.Time, fn func()) { t.At(t.Now()+d, fn) }

// loop pops due events in timestamp order and sleeps until the next one.
func (t *Lossy) loop() {
	defer close(t.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var due []event
		t.mu.Lock()
		now := t.Now()
		for t.events.Len() > 0 && t.events.peek().at <= now {
			due = append(due, heap.Pop(&t.events).(event))
		}
		sleep := time.Hour
		if t.events.Len() > 0 {
			sleep = time.Duration(t.events.peek().at-now) * time.Millisecond
			if sleep <= 0 {
				sleep = time.Millisecond
			}
		}
		t.mu.Unlock()
		for _, e := range due {
			e.fn()
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-t.quit:
			return
		case <-t.wake:
		case <-timer.C:
		}
	}
}

// --- Transport ---------------------------------------------------------------

// Register implements Transport.
func (t *Lossy) Register(p ids.ProcID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: lossy is closed")
	}
	if _, dup := t.handlers[p]; dup {
		return fmt.Errorf("transport: %v already registered", p)
	}
	t.handlers[p] = h
	return nil
}

// Unregister implements Transport: links touching p stop retransmitting
// (on the loop goroutine, where channel state lives).
func (t *Lossy) Unregister(p ids.ProcID) {
	t.mu.Lock()
	delete(t.handlers, p)
	var stopped []*lossyLink
	for k, l := range t.links {
		if k.from == p || k.to == p {
			stopped = append(stopped, l)
			delete(t.links, k)
		}
	}
	t.mu.Unlock()
	for _, l := range stopped {
		s := l.sender
		t.At(t.Now(), func() { s.Stop() })
	}
}

// Send implements Transport: the frame is encoded (through the codec's
// pooled scratch buffers — only the exact-size datagram that crosses the
// link is retained) and handed to the channel's stop-and-wait sender on
// the loop goroutine. Successive sends on one channel carry increasing
// heap sequence numbers, so the ABP queue sees them in send order.
func (t *Lossy) Send(from, to ids.ProcID, m Message) {
	t.stats.noteSend(m.Payload)
	body, err := EncodeFrame(Frame{From: from.String(), To: to.String(), MsgID: m.MsgID, Body: m.Payload})
	if err != nil {
		t.stats.drop(dropWriteFailed)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.stats.drop(dropClosed)
		return
	}
	k := chanKey{from, to}
	l, ok := t.links[k]
	if !ok {
		l = t.newLinkLocked(k)
		t.links[k] = l
	}
	t.mu.Unlock()
	t.At(t.Now(), func() {
		// Loop goroutine: the only place sender state may be read.
		if l.sender.Pending() >= lossyQueueDepth {
			t.stats.drop(dropQueueSaturated)
			return
		}
		l.send(body)
	})
}

// Stats implements Transport.
func (t *Lossy) Stats() Stats { return t.stats.snapshot() }

// newLinkLocked wires one directed channel: ABP sender and receiver across
// a lossy link, delivering decoded frames to the destination handler.
// Construction only allocates; all state transitions run on the loop.
func (t *Lossy) newLinkLocked(k chanKey) *lossyLink {
	deliver := func(p any) {
		body, ok := p.([]byte)
		if !ok {
			return
		}
		f, err := DecodeFrame(body)
		if err != nil {
			return
		}
		from, err := ids.Parse(f.From)
		if err != nil {
			return
		}
		t.mu.Lock()
		h := t.handlers[k.to]
		t.mu.Unlock()
		if h == nil {
			// Destination unregistered while the datagram was in flight.
			t.stats.drop(dropUnknownPeer)
			return
		}
		h(from, Message{MsgID: f.MsgID, Payload: f.Body})
	}
	ticks := func(d time.Duration) sim.Time { return sim.Time(d / time.Millisecond) }
	send, sender := channel.Pair(t, t.rng,
		t.opts.Loss, t.opts.Dup,
		ticks(t.opts.MinDelay), ticks(t.opts.MaxDelay), ticks(t.opts.RTO),
		deliver)
	return &lossyLink{send: send, sender: sender}
}

// Close implements Transport: the event loop exits and pending events are
// discarded.
func (t *Lossy) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.handlers = make(map[ids.ProcID]Handler)
	t.links = make(map[chanKey]*lossyLink)
	t.events = nil
	t.mu.Unlock()
	close(t.quit)
	<-t.done
	return nil
}
