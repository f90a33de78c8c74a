package rsm

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"procgroup/internal/broadcast"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// The recorder's packed storage must be invisible to its readers: these
// tests pin Sequences against the plain []Record the checkers were
// written for, and hold the layout to its memory and allocation budget.

// refObserve is the reference recorder: one Record value per position,
// its body copied into a private allocation.
func refObserve(ref []Record, m broadcast.Msg, applied bool) []Record {
	return append(ref, Record{
		Ver: m.Ver, Seq: m.Seq,
		Origin: m.Origin, PubID: m.PubID,
		Body:    append([]byte(nil), m.Body...),
		Applied: applied,
	})
}

func TestRecorderRoundTripMatchesReference(t *testing.T) {
	r := NewRecorder()
	replicas := []ids.ProcID{ids.Named("p1"), ids.Named("p2")}
	// Two incarnations of one site, plus another site, as origins.
	origins := []ids.ProcID{
		{Site: "p1", Incarnation: 0},
		{Site: "p1", Incarnation: 1},
		{Site: "p3", Incarnation: 0},
	}
	big := bytes.Repeat([]byte("x"), bodyChunkMax+100)
	want := make(map[ids.ProcID][]Record)
	for ri, rep := range replicas {
		s := r.shardFor(rep)
		n := 3*recChunkMax + 17 + ri // several full chunks, the last one partial
		for i := 0; i < n; i++ {
			var body []byte
			switch {
			case i%97 == 5:
				body = nil
			case i%97 == 6:
				body = []byte{} // empty but non-nil: recorded as nil, as before
			case i == 2*recChunkMax+3:
				body = big // larger than any arena chunk
			default:
				body = EncodePut(fmt.Sprintf("k%d", i%256), fmt.Sprintf("v%d", i))
			}
			m := broadcast.Msg{
				Ver:    member.Version(i / 1000),
				Seq:    uint64(i%1000 + 1),
				Origin: origins[(i/3)%len(origins)],
				PubID:  uint64(i + 1),
				Body:   body,
			}
			applied := i%11 != 0
			s.observe(m, applied)
			want[rep] = refObserve(want[rep], m, applied)
		}
	}
	got := r.Sequences()
	if len(got) != len(want) {
		t.Fatalf("Sequences has %d replicas, want %d", len(got), len(want))
	}
	for rep, w := range want {
		g := got[rep]
		if len(g) != len(w) {
			t.Fatalf("%v: %d records, want %d", rep, len(g), len(w))
		}
		for i := range w {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("%v record %d = %+v, want %+v", rep, i, g[i], w[i])
			}
		}
	}
	// The frontier bookkeeping is unchanged by the layout.
	for rep, w := range want {
		a := AppliedOf(w)
		f := r.Frontiers()[rep]
		if f.Applied != len(a) || f.Last != a[len(a)-1].id() {
			t.Fatalf("%v frontier = %+v, want %d applied ending at %v", rep, f, len(a), a[len(a)-1].id())
		}
	}
}

func TestRecorderCopiesBody(t *testing.T) {
	r := NewRecorder()
	s := r.shardFor(ids.Named("p1"))
	body := EncodePut("key", "val")
	s.observe(broadcast.Msg{Seq: 1, Origin: ids.Named("p2"), PubID: 1, Body: body}, true)
	for i := range body {
		body[i] = 0xff
	}
	got := r.Sequences()[ids.Named("p1")][0].Body
	if !bytes.Equal(got, EncodePut("key", "val")) {
		t.Fatalf("recorded body changed with the caller's buffer: %q", got)
	}
	if cap(got) != len(got) {
		t.Fatalf("body handed out with spare capacity %d > %d: an append would write into the arena", cap(got), len(got))
	}
}

func TestRecorderObserveAllocsNothing(t *testing.T) {
	r := NewRecorder()
	s := r.shardFor(ids.Named("p1"))
	m := broadcast.Msg{Origin: ids.Named("p2"), Body: EncodePut("k17", "v123456")}
	const runs = 1000
	// Steady state: origin interned, and both the record chunk and the
	// arena chunk in use have room for every run.
	for {
		m.Seq++
		s.observe(m, true)
		recs, body := s.recs[len(s.recs)-1], s.bodies[len(s.bodies)-1]
		if cap(recs)-len(recs) > runs && cap(body)-len(body) > (runs+1)*len(m.Body) {
			break
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		m.Seq++
		s.observe(m, true)
	})
	if allocs != 0 {
		t.Fatalf("observe allocates %.2f times per record in steady state, want 0", allocs)
	}
}

func TestRecorderRetainedBytesPerRecord(t *testing.T) {
	const n = 100_000
	origins := ids.Gen(5)
	body := EncodePut("k123", "v12345") // 13 bytes, a perfbench-sized put
	if len(body) != 13 {
		t.Fatalf("body is %d bytes, want 13", len(body))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRecorder()
	s := r.shardFor(ids.Named("p1"))
	for i := 0; i < n; i++ {
		s.observe(broadcast.Msg{Ver: 1, Seq: uint64(i + 1), Origin: origins[i%len(origins)], PubID: uint64(i), Body: body}, true)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("retained %.1f B per record", per)
	if per > 64 {
		t.Fatalf("recorder retains %.1f B per record with a 13-byte body, want ≤ 64", per)
	}
}

func TestRecorderConcurrentObserveAndPoll(t *testing.T) {
	r := NewRecorder()
	replicas := ids.Gen(5)
	const n = 5000
	body := func(rep, i int) []byte { return EncodePut(fmt.Sprintf("k%d", rep), fmt.Sprintf("v%d", i)) }

	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		defer close(pollErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fronts := r.Frontiers()
			for ri, rep := range replicas {
				recs := r.Sequences()[rep]
				if fronts[rep].Applied > len(recs) {
					pollErr <- fmt.Errorf("%v: frontier %d ahead of its %d records", rep, fronts[rep].Applied, len(recs))
					return
				}
				// Every snapshot is a prefix of the replica's history.
				for i, rec := range recs {
					if rec.Seq != uint64(i+1) || !bytes.Equal(rec.Body, body(ri, i)) {
						pollErr <- fmt.Errorf("%v record %d = %+v, not position %d", rep, i, rec, i+1)
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for ri, rep := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.shardFor(rep)
			for i := 0; i < n; i++ {
				s.observe(broadcast.Msg{Seq: uint64(i + 1), Origin: rep, PubID: uint64(i + 1), Body: body(ri, i)}, true)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}
	seqs := r.Sequences()
	for _, rep := range replicas {
		if len(seqs[rep]) != n || r.Frontiers()[rep].Applied != n {
			t.Fatalf("%v: %d records, %d applied; want %d", rep, len(seqs[rep]), r.Frontiers()[rep].Applied, n)
		}
	}
}
