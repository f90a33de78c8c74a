package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// testPayloads covers every protocol message kind, with populated and
// zero-valued fields.
func testPayloads() []any {
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	return []any{
		core.Invite{Op: member.Remove(p3), Ver: 4},
		core.OK{Ver: 4},
		core.Commit{
			Op: member.Remove(p3), Ver: 4,
			Next: member.Add(ids.Named("q1")), NextVer: 5,
			Faulty: []ids.ProcID{p3}, Recovered: []ids.ProcID{ids.Named("q1")},
		},
		core.Commit{}, // all-zero fields, nil slices
		core.Interrogate{},
		core.InterrogateOK{
			Ver: 2, Seq: member.Seq{member.Remove(p3)},
			Next:   member.Next{{Op: member.Add(p3), Coord: ids.Named("p1"), Ver: 3}, member.WildcardFor(ids.Named("p2"))},
			Faulty: []ids.ProcID{p3},
		},
		core.Propose{RL: member.Seq{member.Add(p3)}, Ver: 3, Invis: member.Remove(p3)},
		core.ProposeOK{Ver: 3},
		core.ReconfCommit{RL: member.Seq{member.Add(p3)}, Ver: 3},
		core.FaultyReport{Suspect: p3},
		core.JoinRequest{Joiner: p3},
		core.StateTransfer{Members: []ids.ProcID{p3}, Ver: 7, Coord: ids.Named("p1")},
	}
}

// TestFrameRoundTrip encodes every protocol message kind through the
// binary wire codec and checks the decoded frame is structurally
// identical — including the mux header fields (Seq, MsgID).
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range testPayloads() {
		in := Frame{From: "p1", To: "p3#2", Seq: 9, MsgID: 42, Body: payload}
		blob, err := EncodeFrame(in)
		if err != nil {
			t.Fatalf("%T: encode: %v", payload, err)
		}
		out, err := DecodeFrame(blob)
		if err != nil {
			t.Fatalf("%T: decode: %v", payload, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T: round trip\n in: %#v\nout: %#v", payload, in, out)
		}
	}
}

// textPayload is a test payload with one variable-length field.
type textPayload struct{ S string }

func init() {
	RegisterBinaryPayload(203, textPayload{},
		func(e *Encoder, v any) { e.String(v.(textPayload).S) },
		func(d *Decoder) any { return textPayload{S: d.String()} })
}

// unregisteredPayload has no binary codec.
type unregisteredPayload struct{ S string }

// legacyGobFrame is Frame{From: "a", To: "b", MsgID: 1, Body: a one-string
// struct} as the retired kind-0 gob escape hatch encoded it. It must now
// be rejected like any other unknown kind.
var legacyGobFrame = mustHex("003d7f030101054672616d6501ff80000105010446726f6d010c000102546f010c00010353657101060001054d736749440104000104426f6479011000000059ff800101610101620202012b70726f6367726f75702f696e7465726e616c2f7472616e73706f72742e676f624f6e6c795061796c6f6164ff810301010e676f624f6e6c795061796c6f616401ff82000101010153010c00000008ff82040101780000")

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestUnregisteredPayloadRejected: the binary codec is the only encoding.
// A payload type with no codec does not encode, and a kind-0 frame (the
// tag no codec holds) does not decode, on the stream and the datagram
// path alike.
func TestUnregisteredPayloadRejected(t *testing.T) {
	in := Frame{From: "a", To: "b", MsgID: 1, Body: unregisteredPayload{S: "x"}}
	if blob, err := EncodeFrame(in); err == nil {
		t.Fatalf("unregistered payload encoded to %x", blob)
	}
	if err := WriteFrame(io.Discard, in); err == nil {
		t.Fatal("unregistered payload written to a stream")
	}
	if _, err := AppendFrame(nil, in); err == nil {
		t.Fatal("unregistered payload appended")
	}
	for _, body := range [][]byte{
		{0},                       // bare kind tag
		{0, 1, 'a', 1, 'b', 0, 2}, // kind 0 with a well-formed header
		legacyGobFrame,
	} {
		if f, err := DecodeFrame(body); err == nil || !strings.Contains(err.Error(), "unknown payload kind 0") {
			t.Errorf("datagram %x: got %#v, %v; want an unknown-kind error", body, f, err)
		}
		stream := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		if f, err := ReadFrame(bytes.NewReader(append(stream, body...))); err == nil || !strings.Contains(err.Error(), "unknown payload kind 0") {
			t.Errorf("stream %x: got %#v, %v; want an unknown-kind error", body, f, err)
		}
	}
}

// TestGoldenWireFormat pins the binary layout byte for byte: if this test
// breaks, the wire format changed and cross-version framing with it —
// bump a kind tag instead of silently re-shaping an existing encoding.
func TestGoldenWireFormat(t *testing.T) {
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	cases := []struct {
		frame Frame
		hex   string
	}{
		{
			Frame{From: "p1", To: "p2", Seq: 7, MsgID: 42, Body: core.OK{Ver: 4}},
			"02027031027032075408",
		},
		{
			Frame{From: "p1", To: "p3#2", Seq: 1, MsgID: -3, Body: core.Invite{Op: member.Remove(p3), Ver: 4}},
			"0102703104703323320105010270330208",
		},
		{
			Frame{From: "p1", To: "p2", Seq: 2, MsgID: 5, Body: core.Commit{
				Op: member.Remove(p3), Ver: 4,
				Next: member.Add(ids.Named("q1")), NextVer: 5,
				Faulty: []ids.ProcID{p3}, Recovered: []ids.ProcID{ids.Named("q1")},
			}},
			"03027031027032020a01027033020802027131000a01027033020102713100",
		},
		{
			Frame{From: "p2", To: "p1", Seq: 3, MsgID: 6, Body: core.Interrogate{}},
			"04027032027031030c",
		},
		{
			Frame{From: "p2", To: "p1", Seq: 4, MsgID: 7, Body: core.InterrogateOK{
				Ver: 2, Seq: member.Seq{member.Remove(p3)},
				Next:   member.Next{{Op: member.Add(p3), Coord: ids.Named("p1"), Ver: 3}, member.WildcardFor(ids.Named("p2"))},
				Faulty: []ids.ProcID{p3},
			}},
			"05027032027031040e040101027033020202027033020270310006000000000270320000010102703302",
		},
		{
			Frame{From: "p4", To: "p5", Seq: 9, MsgID: 8, Body: core.StateTransfer{
				Members: []ids.ProcID{ids.Named("p1"), p3}, Ver: 7,
				Seq:   member.Seq{member.Add(p3)},
				Coord: ids.Named("p1"), Next: member.Remove(p3), NextVer: 8,
			}},
			"0b02703402703509100202703100027033020e01020270330202703100010270330210",
		},
	}
	for _, tc := range cases {
		got, err := EncodeFrame(tc.frame)
		if err != nil {
			t.Fatalf("%T: encode: %v", tc.frame.Body, err)
		}
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T: wire bytes changed\n got %x\nwant %x", tc.frame.Body, got, want)
		}
		back, err := DecodeFrame(want)
		if err != nil {
			t.Fatalf("%T: golden bytes no longer decode: %v", tc.frame.Body, err)
		}
		if !reflect.DeepEqual(tc.frame, back) {
			t.Errorf("%T: golden decode\n in: %#v\nout: %#v", tc.frame.Body, tc.frame, back)
		}
	}
}

// TestFrameStreamFraming writes several frames to one stream and reads
// them back in order — the length-prefix discipline TCP connections use.
func TestFrameStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	for i := int64(1); i <= 5; i++ {
		f := Frame{From: "p1", To: "p2", MsgID: i, Body: core.OK{Ver: member.Version(i)}}
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 5; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.MsgID != i {
			t.Errorf("frame %d read out of order: got MsgID %d", i, f.MsgID)
		}
	}
}

// TestReadFrameRejectsOversizedLength guards the corruption path: a bogus
// length prefix must error out, not allocate gigabytes.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	buf := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(buf); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestDecodeFrameRejectsCorruption: truncations, trailing garbage, and
// unknown kinds must all error, never panic or mis-decode.
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	blob, err := EncodeFrame(Frame{From: "p1", To: "p3#2", Seq: 9, MsgID: 42, Body: core.Commit{
		Faulty: []ids.ProcID{ids.Named("p2")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeFrame(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := DecodeFrame(append(append([]byte{}, blob...), 0x01)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeFrame([]byte{0xfe, 0x00}); err == nil {
		t.Error("unknown kind tag accepted")
	}
	// A corrupt slice count must not force a huge allocation.
	corrupt := append([]byte{}, blob...)
	corrupt[len(corrupt)-1] = 0xff
	DecodeFrame(corrupt) // must not panic; error or partial decode both fine
}

// TestDecodeFrameRejectsOverflowingCount: a hostile 64-bit slice count
// must fail the bounds check, not wrap it and panic make() with a
// negative capacity (one such frame from any peer would crash the
// process via the TCP read loop).
func TestDecodeFrameRejectsOverflowingCount(t *testing.T) {
	var e Encoder
	e.Byte(kindPropose) // Propose: RL (Seq), Ver, Invis, Faulty
	e.String("p1")
	e.String("p2")
	e.Uvarint(1)       // mux Seq
	e.Varint(1)        // MsgID
	e.Uvarint(1 << 63) // RL count: n*minElem wraps to 0
	if _, err := DecodeFrame(e.Bytes()); err == nil {
		t.Fatal("overflowing slice count accepted")
	}
}

// TestDecoderNeverAliasesInput: the read path reuses body buffers, so a
// decoded frame must survive the buffer being clobbered.
func TestDecoderNeverAliasesInput(t *testing.T) {
	in := Frame{From: "proc-one", To: "proc-two", Seq: 1, MsgID: 2, Body: core.JoinRequest{Joiner: ids.Named("joiner")}}
	blob, err := EncodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xAA
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("decoded frame aliased its input buffer:\n in: %#v\nout: %#v", in, out)
	}
}

// TestEmptyPayloadDecodesToCanonicalValue: fieldless payloads decode to
// the registered prototype without allocating a fresh value.
func TestEmptyPayloadDecodesToCanonicalValue(t *testing.T) {
	blob, err := EncodeFrame(Frame{From: "a", To: "b", Seq: 1, Body: core.Interrogate{}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Body.(core.Interrogate); !ok {
		t.Fatalf("decoded %T, want core.Interrogate", f.Body)
	}
}
