package live

import (
	"math"

	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// DigestEntry is one suspicion inside a batched digest: the suspect's
// identity (the ProcID carries the incarnation, so a rejoined process is
// never confused with its dead predecessor) and the detector confidence
// the suspicion was raised with.
type DigestEntry struct {
	Suspect ids.ProcID
	Level   float64
}

// SuspicionDigest batches pending suspicions onto a beacon slot. Under
// digest dissemination (beacon plane + partial topology) a node with
// pending suspicions replaces the pure heartbeats it owes its monitors
// with digests: the frame still proves the sender alive (receivers feed
// it to the detector exactly like a Heartbeat), and the entries carry
// every suspicion the sender has not yet shown that monitor. Each entry
// travels each beacon edge at most once, so disseminating f suspicions
// costs O(n·k) digest entries on frames the wheel was sending anyway —
// against the relay flood's O(n·deg) dedicated FaultyReport frames.
type SuspicionDigest struct {
	Entries []DigestEntry
}

// MsgLabel implements netsim.Labeled for uniform counting.
func (SuspicionDigest) MsgLabel() string { return "SuspicionDigest" }

// digestKind is the digest's wire kind tag, next to heartbeatKind in the
// substrate range (≥ 16).
const digestKind = 17

func init() {
	// The digest is a beacon (it rides the datagram plane at cadence and
	// doubles as liveness evidence) but Volatile — its entries change
	// between sends, so the per-channel beacon byte caches must not
	// replay a stale first encoding — and Suspicion, so transports count
	// its frames against the dissemination budget.
	transport.RegisterClassedPayload(digestKind, SuspicionDigest{},
		func(e *transport.Encoder, v any) {
			d := v.(SuspicionDigest)
			e.Uvarint(uint64(len(d.Entries)))
			for _, en := range d.Entries {
				e.String(en.Suspect.Site)
				e.Uvarint(uint64(en.Suspect.Incarnation))
				e.Float64(en.Level)
			}
		},
		func(d *transport.Decoder) any {
			// Minimum entry wire size: 1-byte site length + 1-byte
			// incarnation + 8-byte level.
			n := d.Count(10)
			if n == 0 {
				return SuspicionDigest{}
			}
			entries := make([]DigestEntry, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				site := d.String()
				inc := d.Uvarint()
				level := d.Float64()
				if inc > math.MaxUint32 {
					continue // corrupt incarnation: drop the entry
				}
				entries = append(entries, DigestEntry{
					Suspect: ids.ProcID{Site: site, Incarnation: uint32(inc)},
					Level:   level,
				})
			}
			return SuspicionDigest{Entries: entries}
		},
		transport.PayloadClass{Beacon: true, Volatile: true, Suspicion: true})
}

// digestPending is one suspicion waiting to ride this node's beacons:
// its level, and the beacon targets it has already been shown (each
// beacon edge carries an entry at most once — the digest analogue of the
// relay's per-(suspect, target) dedup).
type digestPending struct {
	level float64
	sent  ids.Set
}

// queueDigest enters a suspicion into the outgoing digest batch
// (loop-owned; called via core's SuspicionGossiper hook and marks the
// suspect seen so a later digest echoing it back is not re-absorbed).
func (ln *liveNode) queueDigest(q ids.ProcID, level float64) {
	ln.digestSeen.Add(q)
	if _, ok := ln.digestOut[q]; !ok {
		ln.digestOut[q] = &digestPending{level: level, sent: ids.NewSet()}
	}
}

// pendingFor collects the digest entries owed to beacon target m and
// marks them sent. Nil when m has seen everything pending.
func (ln *liveNode) pendingFor(m ids.ProcID) []DigestEntry {
	var out []DigestEntry
	for q, p := range ln.digestOut {
		if p.sent.Has(m) {
			continue
		}
		p.sent.Add(m)
		out = append(out, DigestEntry{Suspect: q, Level: p.level})
	}
	return out
}

// absorbDigest applies a received digest: each unseen entry is adopted
// through core.GossipSuspectWithLevel, which re-queues it for this
// node's own beacons — the hop that floods the digest across the
// monitoring topology. digestSeen bounds the echo: a suspect is absorbed
// once per view, no matter how many digests repeat it.
func (ln *liveNode) absorbDigest(d SuspicionDigest) {
	for _, en := range d.Entries {
		q := en.Suspect
		if q == ln.id || ln.digestSeen.Has(q) {
			continue
		}
		ln.digestSeen.Add(q)
		ln.node.GossipSuspectWithLevel(q, en.Level)
	}
}

// pruneDigests re-intersects the digest state with an installed view:
// entries for processes no longer in the view are complete (the
// exclusion they argued for happened) and seen-marks for them would only
// leak — a rejoining process returns under a fresh incarnation, so
// dropping the old id can never suppress a live suspicion.
func (ln *liveNode) pruneDigests(members ids.Set) {
	for q := range ln.digestOut {
		if !members.Has(q) {
			delete(ln.digestOut, q)
		}
	}
	for _, q := range ln.digestSeen.Sorted() {
		if !members.Has(q) {
			ln.digestSeen.Remove(q)
		}
	}
}
