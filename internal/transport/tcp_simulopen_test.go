package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"procgroup/internal/ids"
)

// These are the deterministic regression tests for the TCP simultaneous-
// open fix: when both ends of a pair dial each other at once, both must
// keep the connection initiated by the *smaller* pair end — an end that
// kept whichever socket happened to land first would write into a
// connection its peer has already abandoned, silently breaking the §2.1
// reliable-FIFO channel. tcpPostDialHook freezes ensureConn inside its
// dial window while the test injects the opposing adopt, forcing the
// exact interleaving instead of racing for it.

// pairMuxOf waits for the transport to hold a mux for {a, b}.
func pairMuxOf(t *testing.T, tr *TCP, a, b ids.ProcID) *pairMux {
	t.Helper()
	k := pairOf(a, b)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tr.mu.RLock()
		m := tr.pairs[k]
		tr.mu.RUnlock()
		if m != nil {
			return m
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pair mux never created")
	return nil
}

// injectAdopt dials tr's listener for acceptor raw and introduces itself
// as init — the opposing leg of a simultaneous open — then waits until
// the pair mux has adopted it. Returns the test-held end of the socket.
func injectAdopt(t *testing.T, tr *TCP, init, acceptor ids.ProcID) net.Conn {
	t.Helper()
	addr, ok := tr.Addr(acceptor)
	if !ok {
		t.Fatalf("no listener address for %v", acceptor)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("inject dial: %v", err)
	}
	if err := WriteFrame(c, Frame{From: init.String(), To: acceptor.String(), Body: muxHello{}}); err != nil {
		t.Fatalf("inject hello: %v", err)
	}
	m := pairMuxOf(t, tr, init, acceptor)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		adopted := m.conn != nil && m.connInit == init
		m.mu.Unlock()
		if adopted {
			return c
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("injected connection never adopted")
	return nil
}

// TestTCPSimultaneousOpenDialerWins: the dialing end is the smaller pair
// end, so its own dialed connection must win — the injected inbound
// socket (the larger end's leg of the simultaneous open) is adopted
// mid-dial and must then be abandoned, and every queued frame must reach
// the peer over the surviving connection in FIFO order.
func TestTCPSimultaneousOpenDialerWins(t *testing.T) {
	trA, trB := NewTCP(), NewTCP()
	defer trA.Close()
	defer trB.Close()
	a, b := ids.Named("a"), ids.Named("b") // a < b: a's dial must win

	var mu sync.Mutex
	var got []int
	if err := trA.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := trB.Register(b, func(_ ids.ProcID, m Message) {
		mu.Lock()
		got = append(got, int(m.MsgID))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	addrB, _ := trB.Addr(b)
	trA.AddPeer(b, addrB)

	// The hook runs on trA's mux writer mid-ensureConn: trA has dialed
	// trB and is about to re-examine the pair — inject b's opposing leg
	// now, so the writer resumes facing an adopted rival connection.
	var raw net.Conn
	hookDone := make(chan struct{})
	tcpPostDialHook = func(init, dialTo ids.ProcID) {
		tcpPostDialHook = nil // fire exactly once, for a's dial only
		raw = injectAdopt(t, trA, b, a)
		close(hookDone)
	}
	defer func() { tcpPostDialHook = nil }()

	const n = 100
	for i := 1; i <= n; i++ {
		trA.Send(a, b, Message{MsgID: int64(i), Payload: fifoPayload{N: i}})
	}
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ensureConn never reached the simultaneous-open window")
	}

	// The smaller end's dial won: trA must abandon the injected socket.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(raw); err == nil {
		t.Fatal("trA wrote into the abandoned (larger-initiator) connection")
	}
	raw.Close()

	// And the queued traffic arrives intact, in order, over the winner.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}, fmt.Sprintf("%d frames after simultaneous open", n))
	mu.Lock()
	defer mu.Unlock()
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("FIFO broken across simultaneous open: position %d = msg %d", i, id)
		}
	}
}

// TestTCPSimultaneousOpenAcceptorWins: the dialing end is the *larger*
// pair end, so the adopted connection (initiated by the smaller end) must
// win and the dial be discarded — proven by reading the frames off the
// injected socket itself: the transport must write its queued traffic
// into the peer-initiated connection, not the one it dialed.
func TestTCPSimultaneousOpenAcceptorWins(t *testing.T) {
	trA, trB := NewTCP(), NewTCP()
	defer trA.Close()
	defer trB.Close()
	a, b := ids.Named("a"), ids.Named("b") // b dials: a's injected leg must win

	if err := trA.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := trB.Register(b, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	addrA, _ := trA.Addr(a)
	trB.AddPeer(a, addrA)

	var raw net.Conn
	hookDone := make(chan struct{})
	tcpPostDialHook = func(init, dialTo ids.ProcID) {
		tcpPostDialHook = nil
		raw = injectAdopt(t, trB, a, b)
		close(hookDone)
	}
	defer func() { tcpPostDialHook = nil }()

	trB.Send(b, a, Message{MsgID: 7, Payload: fifoPayload{N: 7}})
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ensureConn never reached the simultaneous-open window")
	}

	// The queued frame must surface on the injected (smaller-initiator)
	// socket — the far end of the connection trB was obliged to keep.
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := ReadFrame(raw)
	if err != nil {
		t.Fatalf("trB never wrote into the peer-initiated connection: %v", err)
	}
	if f.From != b.String() || f.To != a.String() || f.MsgID != 7 {
		t.Fatalf("unexpected frame on the surviving connection: %+v", f)
	}
	raw.Close()
}

// TestTCPInInstanceAdoptBeforeDialerResumes: both pair ends live in one
// transport, and the accept side adopts the dialed connection before the
// dialer re-examines the pair. The adopted socket is then the far end of
// the dialer's own connection; keeping it and closing the dialed end
// would write every queued frame into a dead socket, uncounted. All of
// them must arrive, in order, with nothing dropped.
func TestTCPInInstanceAdoptBeforeDialerResumes(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")

	var mu sync.Mutex
	var got []int
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, func(_ ids.ProcID, m Message) {
		mu.Lock()
		got = append(got, int(m.MsgID))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	// Hold the dialer until b's accept loop has adopted the connection.
	var adopted net.Conn
	hookDone := make(chan struct{})
	tcpPostDialHook = func(init, dialTo ids.ProcID) {
		tcpPostDialHook = nil
		defer close(hookDone)
		m := pairMuxOf(t, tr, init, dialTo)
		deadline := time.Now().Add(5 * time.Second)
		for adopted == nil && time.Now().Before(deadline) {
			m.mu.Lock()
			adopted = m.conn
			m.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		if adopted == nil {
			t.Error("accept side never adopted the dialed connection")
		}
	}
	defer func() { tcpPostDialHook = nil }()

	const n = 50
	for i := 1; i <= n; i++ {
		tr.Send(a, b, Message{MsgID: int64(i), Payload: fifoPayload{N: i}})
	}
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ensureConn never reached its post-dial window")
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}, fmt.Sprintf("%d frames after an in-instance adopt (dropped %d)", n, tr.Stats().Dropped()))
	mu.Lock()
	defer mu.Unlock()
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("FIFO broken: position %d = msg %d", i, id)
		}
	}
	if d := tr.Stats().Dropped(); d != 0 {
		t.Fatalf("dropped %d frames on a healthy in-instance link", d)
	}
	// The frames rode the original link: the accepted socket is still
	// open at b, not torn down and replaced by a redial.
	tr.mu.RLock()
	ep := tr.locals[b]
	tr.mu.RUnlock()
	ep.mu.Lock()
	_, open := ep.conns[adopted]
	ep.mu.Unlock()
	if !open {
		t.Fatal("the dialer closed its own dial and the link had to be redialed")
	}
}
