package broadcast

import (
	"math"

	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// Wire kind tags for the broadcast vocabulary, in the substrate range
// (≥ 16) next to live's Heartbeat (16) and SuspicionDigest (17). Kinds 18
// and 19 carried the retired unbatched Pub and Seqd frames; they stay
// unassigned so an old frame decodes as an unknown kind.
const (
	kindAckSeq    = 20
	kindStable    = 21
	kindFlush     = 22
	kindViewSync  = 23
	kindPubBatch  = 24
	kindSeqdBatch = 25
)

// AckSeq is a member's cumulative delivery acknowledgement: it has
// processed view Ver's order contiguously through Seq.
type AckSeq struct {
	Ver uint64
	Seq uint64
}

// Stable announces the sequencer's stability frontier: every member of
// view Ver has processed the order through Seq, so prefixes up to Seq can
// be pruned from retained logs and acked to clients — no crash or view
// change can lose them now.
type Stable struct {
	Ver uint64
	Seq uint64
}

// PubItem is one queued proposal inside a PubBatch: the origin's pub
// counter and the application body.
type PubItem struct {
	PubID uint64
	Body  []byte
}

// PubBatch is the group-commit submission frame: every proposal an origin
// had queued when its batcher flushed, coalesced into one frame to the
// view's sequencer. PubID is the origin's own monotonic counter and items
// are in PubID order: the sequencer orders each origin's pubs by PubID and
// drops duplicates item by item (a resubmission after a view change can
// race the original), so a pub is sequenced at most once.
type PubBatch struct {
	Origin ids.ProcID
	Pubs   []PubItem
}

// SeqdItem is one sequenced message inside a SeqdBatch; its order slot is
// implicit — the batch's FirstSeq plus the item's index.
type SeqdItem struct {
	Origin ids.ProcID
	PubID  uint64
	Body   []byte
}

// SeqdBatch is the group-commit fan-out frame: a contiguous slot range
// [FirstSeq, FirstSeq+len(Entries)) of view Ver's total order, assigned in
// one sequencing step. Stable piggybacks the sequencer's current stability
// frontier, replacing the separate Stable broadcast on the hot path — a
// member processes the entries first, then folds the frontier in.
type SeqdBatch struct {
	Ver      uint64
	FirstSeq uint64
	Stable   uint64
	Entries  []SeqdItem
}

// Entry is one retained log position: the (Ver, Seq) it was sequenced at
// and the message itself. Flush tails and ViewSync orders are entry
// sequences.
type Entry struct {
	Ver    uint64
	Seq    uint64
	Origin ids.ProcID
	PubID  uint64
	Body   []byte
}

// Applied is one origin's applied frontier: the highest PubID of that
// origin processed into the local order. Per-origin frontiers are exact
// summaries because pubs are sequenced in PubID order (see PubBatch).
type Applied struct {
	Origin ids.ProcID
	Max    uint64
}

// Flush is a member's state offer to the new view's sequencer, sent on
// every install: its retained (unstable) log tail, its applied frontiers,
// and whether it is joining fresh (needs a snapshot). The sequencer
// installs the view's order only after every member's flush is in — the
// flush barrier that makes delivery view-synchronous (DESIGN.md §11).
type Flush struct {
	Ver     uint64 // the newly installed view this flush is for
	Applied []Applied
	Tail    []Entry
	Joining bool
}

// ViewSync opens view Ver's total order: the union of the flushed tails
// re-sequenced from 1, the applied frontiers covering everything at or
// below them, and (when some member is joining) a state snapshot that
// those frontiers describe. Members process Entries in order — applying
// what their own frontiers show unprocessed, skipping the rest — and only
// then deliver new SeqdBatch traffic for Ver.
type ViewSync struct {
	Ver      uint64
	Applied  []Applied
	Entries  []Entry
	Snapshot []byte // app snapshot for joiners; nil when no member is joining
	HasSnap  bool
}

// AppTraffic marks the vocabulary for live's application routing.
func (AckSeq) AppTraffic()    {}
func (Stable) AppTraffic()    {}
func (Flush) AppTraffic()     {}
func (ViewSync) AppTraffic()  {}
func (PubBatch) AppTraffic()  {}
func (SeqdBatch) AppTraffic() {}

// MsgLabel implements netsim.Labeled for uniform counting.
func (AckSeq) MsgLabel() string    { return "B.AckSeq" }
func (Stable) MsgLabel() string    { return "B.Stable" }
func (Flush) MsgLabel() string     { return "B.Flush" }
func (ViewSync) MsgLabel() string  { return "B.ViewSync" }
func (PubBatch) MsgLabel() string  { return "B.PubBatch" }
func (SeqdBatch) MsgLabel() string { return "B.SeqdBatch" }

func encProc(e *transport.Encoder, p ids.ProcID) {
	e.String(p.Site)
	e.Uvarint(uint64(p.Incarnation))
}

func decProc(d *transport.Decoder) ids.ProcID {
	site := d.String()
	inc := d.Uvarint()
	if inc > math.MaxUint32 {
		inc = 0 // corrupt incarnation; tolerated like the digest decoder
	}
	return ids.ProcID{Site: site, Incarnation: uint32(inc)}
}

func encEntry(e *transport.Encoder, en Entry) {
	e.Uvarint(en.Ver)
	e.Uvarint(en.Seq)
	encProc(e, en.Origin)
	e.Uvarint(en.PubID)
	e.Blob(en.Body)
}

func decEntry(d *transport.Decoder) Entry {
	return Entry{
		Ver:    d.Uvarint(),
		Seq:    d.Uvarint(),
		Origin: decProc(d),
		PubID:  d.Uvarint(),
		Body:   d.Blob(),
	}
}

func encApplied(e *transport.Encoder, a []Applied) {
	e.Uvarint(uint64(len(a)))
	for _, f := range a {
		encProc(e, f.Origin)
		e.Uvarint(f.Max)
	}
}

func decApplied(d *transport.Decoder) []Applied {
	n := d.Count(3) // min: 1-byte site len + 1-byte inc + 1-byte max
	if n == 0 {
		return nil
	}
	out := make([]Applied, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, Applied{Origin: decProc(d), Max: d.Uvarint()})
	}
	return out
}

func decEntries(d *transport.Decoder) []Entry {
	// Min entry wire size: ver + seq + 2-byte proc + pubID + 1-byte blob.
	n := d.Count(6)
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, decEntry(d))
	}
	return out
}

func init() {
	transport.RegisterBinaryPayload(kindAckSeq, AckSeq{},
		func(e *transport.Encoder, v any) {
			a := v.(AckSeq)
			e.Uvarint(a.Ver)
			e.Uvarint(a.Seq)
		},
		func(d *transport.Decoder) any {
			return AckSeq{Ver: d.Uvarint(), Seq: d.Uvarint()}
		})

	transport.RegisterBinaryPayload(kindStable, Stable{},
		func(e *transport.Encoder, v any) {
			s := v.(Stable)
			e.Uvarint(s.Ver)
			e.Uvarint(s.Seq)
		},
		func(d *transport.Decoder) any {
			return Stable{Ver: d.Uvarint(), Seq: d.Uvarint()}
		})

	transport.RegisterBinaryPayload(kindFlush, Flush{},
		func(e *transport.Encoder, v any) {
			f := v.(Flush)
			e.Uvarint(f.Ver)
			e.Bool(f.Joining)
			encApplied(e, f.Applied)
			e.Uvarint(uint64(len(f.Tail)))
			for _, en := range f.Tail {
				encEntry(e, en)
			}
		},
		func(d *transport.Decoder) any {
			return Flush{
				Ver:     d.Uvarint(),
				Joining: d.Bool(),
				Applied: decApplied(d),
				Tail:    decEntries(d),
			}
		})

	transport.RegisterBinaryPayload(kindPubBatch, PubBatch{},
		func(e *transport.Encoder, v any) {
			pb := v.(PubBatch)
			encProc(e, pb.Origin)
			e.Uvarint(uint64(len(pb.Pubs)))
			for _, p := range pb.Pubs {
				e.Uvarint(p.PubID)
				e.Blob(p.Body)
			}
		},
		func(d *transport.Decoder) any {
			pb := PubBatch{Origin: decProc(d)}
			n := d.Count(2) // min item: 1-byte pubID + 1-byte blob len
			if n == 0 {
				return pb
			}
			pb.Pubs = make([]PubItem, 0, n)
			// One arena for every body in the batch: the remaining input
			// bounds the total body bytes, so the appends never reallocate
			// and the whole batch costs one body allocation.
			arena := make([]byte, 0, d.Remaining())
			for i := 0; i < n && d.Err() == nil; i++ {
				it := PubItem{PubID: d.Uvarint()}
				it.Body, arena = d.BlobInto(arena)
				pb.Pubs = append(pb.Pubs, it)
			}
			return pb
		})

	transport.RegisterBinaryPayload(kindSeqdBatch, SeqdBatch{},
		func(e *transport.Encoder, v any) {
			sb := v.(SeqdBatch)
			e.Uvarint(sb.Ver)
			e.Uvarint(sb.FirstSeq)
			e.Uvarint(sb.Stable)
			e.Uvarint(uint64(len(sb.Entries)))
			for _, it := range sb.Entries {
				encProc(e, it.Origin)
				e.Uvarint(it.PubID)
				e.Blob(it.Body)
			}
		},
		func(d *transport.Decoder) any {
			sb := SeqdBatch{Ver: d.Uvarint(), FirstSeq: d.Uvarint(), Stable: d.Uvarint()}
			n := d.Count(4) // min item: 2-byte proc + 1-byte pubID + 1-byte blob len
			if n == 0 {
				return sb
			}
			sb.Entries = make([]SeqdItem, 0, n)
			arena := make([]byte, 0, d.Remaining())
			for i := 0; i < n && d.Err() == nil; i++ {
				it := SeqdItem{Origin: decProc(d), PubID: d.Uvarint()}
				it.Body, arena = d.BlobInto(arena)
				sb.Entries = append(sb.Entries, it)
			}
			return sb
		})

	transport.RegisterBinaryPayload(kindViewSync, ViewSync{},
		func(e *transport.Encoder, v any) {
			s := v.(ViewSync)
			e.Uvarint(s.Ver)
			e.Bool(s.HasSnap)
			e.Blob(s.Snapshot)
			encApplied(e, s.Applied)
			e.Uvarint(uint64(len(s.Entries)))
			for _, en := range s.Entries {
				encEntry(e, en)
			}
		},
		func(d *transport.Decoder) any {
			return ViewSync{
				Ver:      d.Uvarint(),
				HasSnap:  d.Bool(),
				Snapshot: d.Blob(),
				Applied:  decApplied(d),
				Entries:  decEntries(d),
			}
		})
}
