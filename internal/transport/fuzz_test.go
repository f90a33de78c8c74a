package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// FuzzReadFrame hammers the stream decode path with truncated, corrupted
// and adversarial input: whatever arrives, ReadFrame must return a frame
// or an error — never panic, never over-allocate past maxFrame. Valid
// decodes must carry a Body and re-encode, proving the decoded value is
// inside the codec's domain.
//
// The seed corpus is built from real encodings so mutation starts from
// structurally plausible bytes, plus retired encodings (the kind-0 gob
// blob, kind-18 Pub and kind-19 Seqd frames) that must be rejected.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr Frame) {
		blob, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(blob)))
		buf.Write(hdr[:])
		buf.Write(blob)
		f.Add(buf.Bytes())
		if len(buf.Bytes()) > 6 {
			f.Add(buf.Bytes()[:len(buf.Bytes())-3]) // truncated body
			f.Add(buf.Bytes()[:2])                  // truncated header
		}
	}
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	seed(Frame{From: "p1", To: "p2", Seq: 7, MsgID: 42, Body: core.OK{Ver: 4}})
	seed(Frame{From: "p1", To: "p3#2", Seq: 1, MsgID: 5, Body: core.Commit{
		Op: member.Remove(p3), Ver: 4, Faulty: []ids.ProcID{p3},
	}})
	seed(Frame{From: "p2", To: "p1", Seq: 4, MsgID: 7, Body: core.InterrogateOK{
		Ver: 2, Seq: member.Seq{member.Remove(p3)}, Next: member.Next{member.WildcardFor(ids.Named("p2"))},
	}})
	seed(Frame{From: "a", To: "b", MsgID: 1, Body: textPayload{S: "x"}})
	for _, body := range retiredFrames() {
		stream := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		if fr, err := ReadFrame(bytes.NewReader(stream)); err == nil {
			f.Fatalf("retired frame %x decoded to %#v", body, fr)
		}
		f.Add(stream)
	}
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xfe, 0x01}) // unknown kind
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // oversized length
	{                                                 // hostile 64-bit slice count (would wrap a multiplicative bound)
		var e Encoder
		e.Byte(6) // Propose
		e.String("p1")
		e.String("p2")
		e.Uvarint(1)
		e.Varint(1)
		e.Uvarint(1 << 63)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(e.Bytes())))
		f.Add(append(hdr[:], e.Bytes()...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // expected on corrupt input
		}
		if fr.Body == nil {
			t.Fatalf("decoded frame has no body: %#v", fr)
		}
		if _, err := EncodeFrame(fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v (%#v)", err, fr)
		}
	})
}

// FuzzReadDatagram is FuzzReadFrame's sibling for the datagram plane:
// one UDP payload is one bare frame body (no length prefix — the
// datagram boundary frames it), fed straight to DecodeFrame exactly as
// UDP's read loop does. Whatever a hostile or corrupt datagram carries,
// decode must return a frame or an error — never panic — and valid
// decodes must re-encode.
func FuzzReadDatagram(f *testing.F) {
	seed := func(fr Frame) {
		blob, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if len(blob) > 3 {
			f.Add(blob[:len(blob)-3]) // truncated tail — the kernel cannot, but a peer can
		}
	}
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	seed(Frame{From: "p1", To: "p2", Body: core.OK{Ver: 4}})
	seed(Frame{From: "p1", To: "p2", Body: muxHello{}}) // beacon-shaped: kind + identifiers only
	seed(Frame{From: "p1", To: "p3#2", MsgID: 5, Body: core.Commit{
		Op: member.Remove(p3), Ver: 4, Faulty: []ids.ProcID{p3},
	}})
	seed(Frame{From: "a", To: "b", MsgID: 1, Body: textPayload{S: "x"}})
	for _, body := range retiredFrames() {
		if fr, err := DecodeFrame(body); err == nil {
			f.Fatalf("retired frame %x decoded to %#v", body, fr)
		}
		f.Add(body)
	}
	f.Add([]byte{})           // zero-length datagram
	f.Add([]byte{0xfe, 0x01}) // unknown kind
	{                         // hostile 64-bit slice count (would wrap a multiplicative bound)
		var e Encoder
		e.Byte(6) // Propose
		e.String("p1")
		e.String("p2")
		e.Uvarint(0)
		e.Varint(1)
		e.Uvarint(1 << 63)
		f.Add(e.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if fr.Body == nil {
			t.Fatalf("decoded datagram has no body: %#v", fr)
		}
		if _, err := EncodeFrame(fr); err != nil {
			t.Fatalf("decoded datagram does not re-encode: %v (%#v)", err, fr)
		}
	})
}

// retiredFrames are frame bodies of encodings the wire no longer has: the
// kind-0 gob escape hatch, and the unbatched broadcast Pub (kind 18) and
// Seqd (kind 19). Every decode path must reject them.
func retiredFrames() [][]byte {
	return [][]byte{
		legacyGobFrame,
		mustHex("12027031027032030002703200070178"),     // Pub{p2, PubID 7, "x"}
		mustHex("130270310270320400010202703200070178"), // Seqd{Ver 1, Seq 2, p2, PubID 7, "x"}
	}
}
