package rsm

import (
	"fmt"
	"sort"
	"sync"

	"procgroup/internal/broadcast"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// Record is one order position as one replica processed it. (Origin,
// PubID) is the command's global identity; (Ver, Seq) the slot it held at
// this replica — a command redelivered by state transfer appears under
// the new view's slot at replicas that caught up there. Applied is false
// when the replica recognized the command as already applied and skipped
// it (the exactly-once dedup).
type Record struct {
	Ver     member.Version
	Seq     uint64
	Origin  ids.ProcID
	PubID   uint64
	Body    []byte
	Applied bool
}

// CmdID is a command's global identity across views and replicas.
type CmdID struct {
	Origin ids.ProcID
	PubID  uint64
}

func (r Record) id() CmdID { return CmdID{r.Origin, r.PubID} }

// Recorder captures, per replica, every order position processed — the
// raw material of the total-order checker. Safe for concurrent use:
// storage is sharded per replica, so at recording rates (every order
// position at every replica) the event loops never contend on a shared
// lock — each appends to its own shard, and the outer mutex is only taken
// to look a shard up.
//
// A shard keeps its records packed rather than as Record values: a
// fixed-size, pointer-free packedRec per position, the origin interned
// into a per-shard table, and the body copied into an append-only byte
// arena. Records and bodies both live in chunks that are never copied or
// regrown; the first chunk is small and each next one doubles up to a
// cap, so a replica's first record allocates under 2 KB and each record
// costs ~40 bytes plus its body, none of it scanned by the GC.
// Sequences rebuilds the Record values on demand, field for field.
type Recorder struct {
	mu     sync.Mutex
	shards map[ids.ProcID]*recShard
}

// Chunk sizes of a shard's record store and body arena: each new chunk
// doubles the previous one's size, from first to max.
const (
	recChunkFirst  = 32
	recChunkMax    = 2048
	bodyChunkFirst = 512
	bodyChunkMax   = 64 << 10
)

// packedRec is one Record in a shard's pointer-free layout. origin packs
// the index into recShard.origins (upper bits) with the applied flag
// (low bit); body names the record's bytes in the shard's arena.
type packedRec struct {
	ver    member.Version
	seq    uint64
	pubID  uint64
	body   bodySpan
	origin uint32
}

// bodySpan locates one body in a shard's arena: n bytes at off in
// chunk.
type bodySpan struct {
	chunk, off, n uint32
}

type recShard struct {
	mu      sync.Mutex
	recs    [][]packedRec // chunks; only the last has spare capacity
	nrecs   int
	origins []ids.ProcID          // interned origins, by packedRec index
	orgIdx  map[ids.ProcID]uint32 // origin → index into origins
	bodies  [][]byte              // arena chunks; only the last has room
	applied int                   // running count of applied records
	last    CmdID                 // identity of the last applied record
}

// NewRecorder builds an empty recorder shared by a group's replicas.
func NewRecorder() *Recorder {
	return &Recorder{shards: make(map[ids.ProcID]*recShard)}
}

// shardFor returns replica's shard, creating it on first use; a Node
// caches it so the hot observe path takes only the uncontended shard lock.
func (r *Recorder) shardFor(replica ids.ProcID) *recShard {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shards[replica]
	if s == nil {
		s = &recShard{orgIdx: make(map[ids.ProcID]uint32)}
		r.shards[replica] = s
	}
	return s
}

func (s *recShard) observe(m broadcast.Msg, applied bool) {
	s.mu.Lock()
	rec := packedRec{
		ver: m.Ver, seq: m.Seq, pubID: m.PubID,
		body:   s.storeBody(m.Body),
		origin: s.intern(m.Origin) << 1,
	}
	if applied {
		rec.origin |= 1
		s.applied++
		s.last = CmdID{Origin: m.Origin, PubID: m.PubID}
	}
	last := len(s.recs) - 1
	if last < 0 || len(s.recs[last]) == cap(s.recs[last]) {
		s.recs = append(s.recs, make([]packedRec, 0, nextChunk(s.recs, recChunkFirst, recChunkMax)))
		last++
	}
	s.recs[last] = append(s.recs[last], rec)
	s.nrecs++
	s.mu.Unlock()
}

// intern returns origin's index in the shard's origin table, adding it
// on first sight; s.mu must be held.
func (s *recShard) intern(origin ids.ProcID) uint32 {
	i, ok := s.orgIdx[origin]
	if !ok {
		i = uint32(len(s.origins))
		s.origins = append(s.origins, origin)
		s.orgIdx[origin] = i
	}
	return i
}

// storeBody copies body into the arena; s.mu must be held. A body larger
// than the next chunk gets a chunk of its own size.
func (s *recShard) storeBody(body []byte) bodySpan {
	if len(body) == 0 {
		return bodySpan{}
	}
	last := len(s.bodies) - 1
	if last < 0 || cap(s.bodies[last])-len(s.bodies[last]) < len(body) {
		s.bodies = append(s.bodies, make([]byte, 0, max(nextChunk(s.bodies, bodyChunkFirst, bodyChunkMax), len(body))))
		last++
	}
	c := s.bodies[last]
	s.bodies[last] = append(c, body...)
	return bodySpan{chunk: uint32(last), off: uint32(len(c)), n: uint32(len(body))}
}

// nextChunk sizes the chunk that follows chunks: first, then twice the
// last chunk's capacity, capped at most.
func nextChunk[T any](chunks [][]T, first, most int) int {
	if len(chunks) == 0 {
		return first
	}
	return min(2*cap(chunks[len(chunks)-1]), most)
}

// record rebuilds one Record; s.mu must be held.
func (s *recShard) record(p *packedRec) Record {
	rec := Record{
		Ver: p.ver, Seq: p.seq,
		Origin:  s.origins[p.origin>>1],
		PubID:   p.pubID,
		Applied: p.origin&1 == 1,
	}
	if n := p.body.n; n > 0 {
		end := p.body.off + n
		rec.Body = s.bodies[p.body.chunk][p.body.off:end:end]
	}
	return rec
}

// Sequences returns every replica's processed order as fresh Record
// slices. Bodies alias the recorder's arena and are read-only.
func (r *Recorder) Sequences() map[ids.ProcID][]Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ids.ProcID][]Record, len(r.shards))
	for p, s := range r.shards {
		s.mu.Lock()
		recs := make([]Record, 0, s.nrecs)
		for _, chunk := range s.recs {
			for i := range chunk {
				recs = append(recs, s.record(&chunk[i]))
			}
		}
		s.mu.Unlock()
		out[p] = recs
	}
	return out
}

// Frontier is one replica's applied-history summary: how many commands
// it has applied and the identity of the last one.
type Frontier struct {
	Applied int
	Last    CmdID
}

// Frontiers summarizes every replica's applied sequence without copying
// history — the cheap poll for settle/quiesce loops, where Sequences
// would rebuild every replica's whole history as 80-byte Records per
// call and dominate the run.
func (r *Recorder) Frontiers() map[ids.ProcID]Frontier {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ids.ProcID]Frontier, len(r.shards))
	for p, s := range r.shards {
		s.mu.Lock()
		out[p] = Frontier{Applied: s.applied, Last: s.last}
		s.mu.Unlock()
	}
	return out
}

// AppliedOf filters one replica's records down to its applied sequence.
func AppliedOf(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, rec := range recs {
		if rec.Applied {
			out = append(out, rec)
		}
	}
	return out
}

// CheckTotalOrder is the broadcast layer's certification: given every
// replica's processed order and the set of replicas alive (and quiesced)
// at the end of the run, it verifies
//
//  1. exactly-once — no replica applied the same (Origin, PubID) twice;
//  2. total order — all replicas' applied sequences are pairwise
//     consistent under alignment: a replica that joined mid-run applies
//     a suffix of the global order (its snapshot absorbed the prefix),
//     so each pair is aligned at their first shared command and must
//     agree on the whole overlap — no two replicas ever apply the same
//     pair of commands in opposite orders;
//  3. agreement — replicas alive at the end converged on the same final
//     command (with 2, their overlapping histories are identical);
//  4. per-view order — within each view version, every replica processed
//     slots contiguously from 1, and any two replicas that both
//     processed a slot of that view saw the same command in it.
//
// One exception, straight from the virtual-synchrony model: a replica
// that did NOT survive to the end may carry a divergent *suffix*. A
// dying sequencer applies a slot locally the moment it assigns it, so a
// crash can strand entries it applied that no survivor ever received;
// the flush cut excludes them, the origins resubmit, and the commands
// re-sequence into the next view in whatever cross-origin interleaving
// the resubmissions arrive in. Those entries were never stable, so no
// client ack depends on them — the durability the checkers guarantee is
// for acked ops and for survivors. Pairwise comparison involving a dead
// replica therefore stops at the first mismatch (its post-cut tail);
// every check over alive replicas remains exact, as does per-view slot
// agreement (a slot the old view assigned is the same command at every
// replica that processed it, dead or not).
//
// A nil error is the "identical per-view command sequences, no divergence
// anywhere among survivors" verdict the bench report quotes.
func CheckTotalOrder(seqs map[ids.ProcID][]Record, alive []ids.ProcID) error {
	replicas := make([]ids.ProcID, 0, len(seqs))
	for p := range seqs {
		replicas = append(replicas, p)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].Less(replicas[j]) })
	aliveSet := ids.NewSet(alive...)

	applied := make(map[ids.ProcID][]Record, len(seqs))
	index := make(map[ids.ProcID]map[CmdID]int, len(seqs))
	for _, p := range replicas {
		a := AppliedOf(seqs[p])
		idx := make(map[CmdID]int, len(a))
		for i, rec := range a {
			if _, dup := idx[rec.id()]; dup {
				return fmt.Errorf("replica %v applied %v/%d twice", p, rec.Origin, rec.PubID)
			}
			idx[rec.id()] = i
		}
		applied[p], index[p] = a, idx
	}

	for i, p := range replicas {
		for _, q := range replicas[i+1:] {
			a, b := applied[p], applied[q]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			// Align q's sequence inside p's at their first shared
			// command; disjoint histories (p crashed before q joined)
			// have nothing to agree on.
			off, found := -1, false
			for j, rec := range b {
				if k, ok := index[p][rec.id()]; ok {
					off, found = k-j, true
					break
				}
			}
			if !found {
				continue
			}
			bothAlive := aliveSet.Has(p) && aliveSet.Has(q)
			for j, rec := range b {
				k := off + j
				if k < 0 || k >= len(a) {
					continue
				}
				if a[k].id() != rec.id() {
					if !bothAlive {
						// A dead replica's post-cut suffix may diverge
						// (see the doc comment); nothing after the first
						// mismatch is part of the surviving order.
						break
					}
					return fmt.Errorf("order divergence: %v applied %v/%d at aligned position %d where %v applied %v/%d",
						q, rec.Origin, rec.PubID, k, p, a[k].Origin, a[k].PubID)
				}
			}
		}
	}

	var last CmdID
	haveLast := false
	for _, p := range alive {
		a, ok := applied[p]
		if !ok || len(a) == 0 {
			continue // a replica that applied nothing constrains nothing
		}
		end := a[len(a)-1].id()
		if !haveLast {
			last, haveLast = end, true
			continue
		}
		if end != last {
			return fmt.Errorf("alive replicas diverge at the end: %v finished at %v/%d, others at %v/%d",
				p, end.Origin, end.PubID, last.Origin, last.PubID)
		}
	}

	// Per-view slot agreement: slot → command, and contiguity per replica.
	type slot struct {
		ver member.Version
		seq uint64
	}
	owner := make(map[slot]CmdID)
	for _, p := range replicas {
		next := make(map[member.Version]uint64)
		for _, rec := range seqs[p] {
			if want, ok := next[rec.Ver]; ok {
				if rec.Seq != want {
					return fmt.Errorf("replica %v processed view %d slot %d after slot %d (non-contiguous)",
						p, rec.Ver, rec.Seq, want-1)
				}
			} else if rec.Seq != 1 {
				return fmt.Errorf("replica %v entered view %d at slot %d, not 1", p, rec.Ver, rec.Seq)
			}
			next[rec.Ver] = rec.Seq + 1
			s := slot{rec.Ver, rec.Seq}
			if id, ok := owner[s]; ok {
				if id != rec.id() {
					return fmt.Errorf("view %d slot %d holds %v/%d at one replica and %v/%d at %v",
						rec.Ver, rec.Seq, id.Origin, id.PubID, rec.Origin, rec.PubID, p)
				}
			} else {
				owner[s] = rec.id()
			}
		}
	}
	return nil
}

// LongestApplied returns the longest applied sequence among the given
// replicas — under a passing CheckTotalOrder it is *the* total order,
// every other replica's applied sequence being a prefix of it.
func LongestApplied(seqs map[ids.ProcID][]Record) []Record {
	var best []Record
	var bestID ids.ProcID
	first := true
	for p, s := range seqs {
		a := AppliedOf(s)
		if first || len(a) > len(best) || (len(a) == len(best) && p.Less(bestID)) {
			best, bestID, first = a, p, false
		}
	}
	return best
}

// ClientOp is one client-side operation of the KV workload, as the bench
// or test harness recorded it: what was asked, what came back, and when.
// Acked sequenced ops carry the (Origin, PubID) identity Propose
// returned; acked local reads carry the fence instead — the (Origin,
// PubID) of the last command applied at the serving replica when the
// value was captured, naming the order prefix the read reflects.
type ClientOp struct {
	Write    bool
	Key      string
	Val      string // write: value written; read: value returned
	Origin   ids.ProcID
	PubID    uint64
	Invoke   int64 // ns on the harness clock
	Complete int64
	Acked    bool
	Local    bool  // read served locally behind the stability fence
	Fence    CmdID // local reads only; zero = read of the empty prefix
}

// CheckKVLinearizable verifies the KV workload's client-visible story
// against the applied total order:
//
//  1. durability — every acked sequenced op appears in the order exactly
//     once (zero acked-write loss), and every acked local read's fence
//     names a command the order contains;
//  2. real time — if op A completed before op B was invoked, A's
//     linearization point precedes B's. Sequenced ops linearize at their
//     order position p; a local read fenced at position p linearizes just
//     after p (it observed p's effects, and completed only once that
//     prefix was stable). Encoding points as 2p for sequenced ops and
//     2p+1 for local reads makes the sweep a single integer comparison:
//     two local reads may legally share a point (both saw the same
//     prefix), every other tie is impossible, so any point strictly below
//     an earlier-completed op's point is a violation — an acked write
//     reordered behind a later op, or a read that returned state older
//     than one it was invoked after;
//  3. read values — replaying the order's commands through a fresh KV,
//     every acked sequenced read returned exactly the replayed state of
//     its key at its own order position, and every acked local read
//     returned the replayed state of its key just after its fence
//     position (the empty state for a zero fence).
//
// Together with CheckTotalOrder (one agreed order) this is
// linearizability of the acked history: the order is a legal sequential
// KV execution consistent with real time, in both read modes.
func CheckKVLinearizable(ops []ClientOp, order []Record) error {
	pos := make(map[CmdID]int, len(order))
	for i, rec := range order {
		pos[rec.id()] = i
	}
	// point is an op's linearization point in sweep encoding; ok is false
	// when the op (or its fence) is missing from the order.
	point := func(op ClientOp) (int, bool) {
		if op.Local {
			if (op.Fence == CmdID{}) {
				return -1, true // read of the empty prefix
			}
			p, ok := pos[op.Fence]
			return 2*p + 1, ok
		}
		p, ok := pos[CmdID{op.Origin, op.PubID}]
		return 2 * p, ok
	}

	acked := make([]ClientOp, 0, len(ops))
	for _, op := range ops {
		if op.Acked {
			acked = append(acked, op)
		}
	}
	seen := make(map[CmdID]bool, len(acked))
	for _, op := range acked {
		if op.Local {
			if _, ok := point(op); !ok {
				return fmt.Errorf("local read of key %q fenced at %v/%d, which is absent from the applied order",
					op.Key, op.Fence.Origin, op.Fence.PubID)
			}
			continue
		}
		id := CmdID{op.Origin, op.PubID}
		if seen[id] {
			return fmt.Errorf("acked op %v/%d recorded twice by the harness", op.Origin, op.PubID)
		}
		seen[id] = true
		if _, ok := pos[id]; !ok {
			return fmt.Errorf("ACKED OP LOST: %v/%d (key %q) acked but absent from the applied order",
				op.Origin, op.PubID, op.Key)
		}
	}

	// Real-time order: walk acked ops by invocation time, tracking the max
	// linearization point among ops completed before each invocation; the
	// new op's point must not precede any of them.
	byComplete := append([]ClientOp(nil), acked...)
	sort.Slice(byComplete, func(i, j int) bool { return byComplete[i].Complete < byComplete[j].Complete })
	byInvoke := append([]ClientOp(nil), acked...)
	sort.Slice(byInvoke, func(i, j int) bool { return byInvoke[i].Invoke < byInvoke[j].Invoke })
	const noPoint = -2 // below every encoded point, including the empty-prefix read's -1
	maxPt, ci := noPoint, 0
	for _, op := range byInvoke {
		for ci < len(byComplete) && byComplete[ci].Complete < op.Invoke {
			if pt, _ := point(byComplete[ci]); pt > maxPt {
				maxPt = pt
			}
			ci++
		}
		if pt, _ := point(op); pt < maxPt {
			return fmt.Errorf("real-time violation: op on key %q invoked after an op that completed earlier yet linearized at %d < %d",
				op.Key, pt, maxPt)
		}
	}

	// Read values: replay the order; compare sequenced reads at their own
	// position and local reads just after their fence position.
	vals := make(map[CmdID]ClientOp, len(acked))
	localAt := make(map[int][]ClientOp)
	for _, op := range acked {
		if op.Local {
			p := -1
			if (op.Fence != CmdID{}) {
				p = pos[op.Fence]
			}
			localAt[p] = append(localAt[p], op)
			continue
		}
		vals[CmdID{op.Origin, op.PubID}] = op
	}
	kv := NewKV()
	checkLocal := func(p int) error {
		for _, op := range localAt[p] {
			if got := kv.Get(op.Key); got != op.Val {
				return fmt.Errorf("STALE LOCAL READ: key %q read as %q but the order says %q at fence position %d",
					op.Key, op.Val, got, p)
			}
		}
		return nil
	}
	if err := checkLocal(-1); err != nil {
		return err
	}
	for i, rec := range order {
		out := kv.Apply(rec.Body)
		if op, ok := vals[rec.id()]; ok && !op.Write {
			if got := string(out); got != op.Val {
				return fmt.Errorf("STALE READ: %v/%d read key %q as %q but the order says %q at its position",
					op.Origin, op.PubID, op.Key, op.Val, got)
			}
		}
		if err := checkLocal(i); err != nil {
			return err
		}
	}
	return nil
}
