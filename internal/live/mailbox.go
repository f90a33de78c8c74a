package live

import (
	"sync"

	"procgroup/internal/ids"
)

// mailbox is an unbounded FIFO queue with a wake channel. Unbounded is the
// right trade here: protocol traffic is small and bounded by group size,
// and a bounded mailbox could deadlock two nodes sending to each other's
// full queues from their own event loops.
type mailbox struct {
	mu     sync.Mutex
	items  []envelope
	wake   chan struct{}
	closed bool
}

// envelope is one queued input for a node's event loop.
type envelope struct {
	from    ids.ProcID // sender (Nil for local closures)
	payload any
	msgID   int64  // trace correlation id (0 for unrecorded traffic)
	fn      func() // when non-nil, a local task (timer, query)
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1)}
}

// put enqueues an envelope; it never blocks.
func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.items = append(m.items, e)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// swap takes every queued envelope under one lock and hands spare (the
// caller's previous, fully dispatched burst) to the queue as its new
// backing array, so the two slices alternate without reallocating.
func (m *mailbox) swap(spare []envelope) []envelope {
	clear(spare)
	m.mu.Lock()
	burst := m.items
	m.items = spare[:0]
	m.mu.Unlock()
	return burst
}

// close discards queued items and rejects future puts.
func (m *mailbox) close() {
	m.mu.Lock()
	m.items = nil
	m.closed = true
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}
