package broadcast

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// wirePayloads covers the whole broadcast vocabulary (kinds 20–25), with
// populated and zero-valued fields.
func wirePayloads() []any {
	px := ids.ProcID{Site: "p3", Incarnation: 2}
	return []any{
		PubBatch{Origin: px, Pubs: []PubItem{
			{PubID: 7, Body: []byte("set k v")},
			{PubID: 8, Body: nil}, // empty body mid-batch
			{PubID: 9, Body: []byte("set k2 w")},
		}},
		PubBatch{Origin: ids.Named("p1")}, // empty batch
		SeqdBatch{Ver: 3, FirstSeq: 12, Stable: 9, Entries: []SeqdItem{
			{Origin: px, PubID: 7, Body: []byte("set k v")},
			{Origin: ids.Named("p1"), PubID: 2, Body: nil},
			{Origin: px, PubID: 8, Body: []byte("z")},
		}},
		SeqdBatch{Ver: 4}, // empty range, frontier only
		AckSeq{Ver: 3, Seq: 12},
		AckSeq{},
		Stable{Ver: 3, Seq: 9},
		Flush{
			Ver:     4,
			Applied: []Applied{{Origin: px, Max: 7}, {Origin: ids.Named("p1"), Max: 2}},
			Tail:    []Entry{{Ver: 3, Seq: 10, Origin: px, PubID: 6, Body: []byte("x")}},
			Joining: true,
		},
		Flush{Ver: 4}, // empty tail, no frontiers
		ViewSync{
			Ver:      4,
			Applied:  []Applied{{Origin: px, Max: 7}},
			Entries:  []Entry{{Ver: 4, Seq: 1, Origin: px, PubID: 7, Body: []byte("set k v")}},
			Snapshot: []byte{1, 2, 3},
			HasSnap:  true,
		},
		ViewSync{Ver: 5},
	}
}

// TestBroadcastWireRoundTrip: every broadcast payload round-trips through
// the binary codec structurally intact.
func TestBroadcastWireRoundTrip(t *testing.T) {
	for _, payload := range wirePayloads() {
		in := transport.Frame{From: "p1", To: "p3#2", Seq: 5, MsgID: 0, Body: payload}
		blob, err := transport.EncodeFrame(in)
		if err != nil {
			t.Fatalf("%T: encode: %v", payload, err)
		}
		out, err := transport.DecodeFrame(blob)
		if err != nil {
			t.Fatalf("%T: decode: %v", payload, err)
		}
		if !wireEqual(in, out) {
			t.Errorf("%T: round trip\n in: %#v\nout: %#v", payload, in, out)
		}
	}
}

// TestRetiredKindsRejected: kinds 18 and 19 carried the unbatched Pub
// and Seqd frames. They stay unassigned, so such a frame fails to decode
// on the datagram path and the stream path alike.
func TestRetiredKindsRejected(t *testing.T) {
	for _, h := range []string{
		"12027031027032030002703200070178",     // Pub{p2, PubID 7, "x"}
		"130270310270320400010202703200070178", // Seqd{Ver 1, Seq 2, p2, PubID 7, "x"}
	} {
		body, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unknown payload kind %d", body[0])
		if f, err := transport.DecodeFrame(body); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("datagram %s: got %#v, %v; want %q", h, f, err, want)
		}
		stream := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		if f, err := transport.ReadFrame(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("stream %s: got %#v, %v; want %q", h, f, err, want)
		}
	}
}

// wireEqual compares frames treating nil and empty slices as equal: the
// binary codec does not distinguish them (a zero-length blob decodes nil),
// and no consumer does either.
func wireEqual(a, b transport.Frame) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(f transport.Frame) transport.Frame {
	switch v := f.Body.(type) {
	case PubBatch:
		if len(v.Pubs) == 0 {
			v.Pubs = nil
		}
		for i := range v.Pubs {
			v.Pubs[i].Body = unempty(v.Pubs[i].Body)
		}
		f.Body = v
	case SeqdBatch:
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
		for i := range v.Entries {
			v.Entries[i].Body = unempty(v.Entries[i].Body)
		}
		f.Body = v
	case Flush:
		if len(v.Applied) == 0 {
			v.Applied = nil
		}
		if len(v.Tail) == 0 {
			v.Tail = nil
		}
		f.Body = v
	case ViewSync:
		if len(v.Applied) == 0 {
			v.Applied = nil
		}
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
		v.Snapshot = unempty(v.Snapshot)
		f.Body = v
	}
	return f
}

func unempty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// TestBroadcastWireRejectsCorruption: truncating a Flush (the widest
// payload) at every byte must error or truncate cleanly, never panic.
func TestBroadcastWireRejectsCorruption(t *testing.T) {
	px := ids.ProcID{Site: "p3", Incarnation: 2}
	blob, err := transport.EncodeFrame(transport.Frame{From: "p1", To: "p2", Seq: 1, Body: Flush{
		Ver:     4,
		Applied: []Applied{{Origin: px, Max: 7}},
		Tail:    []Entry{{Ver: 3, Seq: 10, Origin: px, PubID: 6, Body: []byte("x")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := transport.DecodeFrame(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
	// A hostile slice count must not force a huge allocation or panic.
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)-1] = 0xff
	transport.DecodeFrame(corrupt)
}

// TestBatchWireRejectsCorruption: the batch frames' truncation behavior,
// byte by byte, plus arena-decode independence — each decoded body must
// be its own value, not a window into a neighbor's bytes.
func TestBatchWireRejectsCorruption(t *testing.T) {
	px := ids.ProcID{Site: "p3", Incarnation: 2}
	sb := SeqdBatch{Ver: 3, FirstSeq: 5, Stable: 2, Entries: []SeqdItem{
		{Origin: px, PubID: 7, Body: []byte("abc")},
		{Origin: px, PubID: 8, Body: []byte("defg")},
	}}
	blob, err := transport.EncodeFrame(transport.Frame{From: "p1", To: "p2", Seq: 1, Body: sb})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := transport.DecodeFrame(blob[:n]); err == nil {
			t.Errorf("SeqdBatch truncated to %d bytes decoded without error", n)
		}
	}
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)-1] = 0xff // hostile trailing count/length byte
	transport.DecodeFrame(corrupt)

	out, err := transport.DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Body.(SeqdBatch)
	// Appending to one arena-decoded body must not clobber the next one
	// (BlobInto returns capacity-clipped subslices).
	_ = append(got.Entries[0].Body, 'X', 'Y', 'Z')
	if string(got.Entries[1].Body) != "defg" {
		t.Fatalf("append to entry 0's body corrupted entry 1: %q", got.Entries[1].Body)
	}

	pb := PubBatch{Origin: px, Pubs: []PubItem{{PubID: 1, Body: []byte("aa")}, {PubID: 2, Body: []byte("bb")}}}
	blob, err = transport.EncodeFrame(transport.Frame{From: "p1", To: "p2", Seq: 1, Body: pb})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := transport.DecodeFrame(blob[:n]); err == nil {
			t.Errorf("PubBatch truncated to %d bytes decoded without error", n)
		}
	}
}
