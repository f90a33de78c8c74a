package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// Frame is the unit of the wire codec: one message on one directed
// channel, self-contained so it can travel over a byte stream (TCP) or a
// datagram (UDP) alike.
type Frame struct {
	From  string // ids.ProcID.String() of the sender
	To    string // ids.ProcID.String() of the destination
	Seq   uint64 // per-channel mux sequence (0 = unsequenced, e.g. beacons)
	MsgID int64
	Body  any // a payload type with a registered binary codec
}

// maxFrame bounds a decoded frame; protocol messages are tiny (a view's
// worth of identifiers at most), so anything near this is stream
// corruption, not traffic.
const maxFrame = 1 << 20

// Wire format (the 4-byte big-endian length prefix of WriteFrame/ReadFrame
// is outside this layout):
//
//	byte 0:  payload kind tag (never 0: kind 0 decodes as unknown)
//	then:    uvarint-len From | uvarint-len To | uvarint Seq |
//	         varint MsgID | kind-specific payload fields
//
// Strings are uvarint length + raw bytes; process identifiers inside
// payloads are Site string + uvarint incarnation; versions and MsgIDs are
// zigzag varints; slices are uvarint count + elements (count 0 decodes to
// nil). The golden-bytes test in codec_test.go pins this layout.
const (
	_ byte = iota // kind 0 is never assigned
	kindInvite
	kindOK
	kindCommit
	kindInterrogate
	kindInterrogateOK
	kindPropose
	kindProposeOK
	kindReconfCommit
	kindFaultyReport
	kindJoinRequest
	kindStateTransfer
	kindMuxHello // transport-internal: announces a mux connection's pair
)

// Substrate layers register their own payloads at kinds ≥ 16; 1–15 are
// reserved for the closed core vocabulary and transport bookkeeping, and
// kinds ≥ 200 for tests and benchmarks.

// --- Binary payload registry -------------------------------------------------

// payloadCodec is one registered payload type's binary wiring.
type payloadCodec struct {
	kind  byte
	typ   reflect.Type
	empty bool // fieldless payload: decode returns proto, zero allocations
	// beacon marks idempotent liveness signals (heartbeats): they are
	// exempt from per-channel mux sequencing (Seq stays 0), their encoded
	// bytes are cacheable per channel, and queued duplicates coalesce.
	beacon bool
	// volatile marks a beacon whose encoding varies between sends: it
	// still rides the beacon plane, but the per-channel byte caches and
	// duplicate coalescing must not apply — a cached first encoding
	// would silently replay stale contents forever.
	volatile bool
	// suspicion marks payloads that disseminate failure suspicions;
	// every send of one increments Stats.SuspicionFrames.
	suspicion bool
	proto     any
	enc       func(*Encoder, any)
	dec       func(*Decoder) any
}

// PayloadClass refines how a registered binary payload is treated on the
// wire, beyond its field codec.
type PayloadClass struct {
	// Beacon marks an idempotent liveness signal: exempt from mux
	// sequencing, routed to the datagram plane by TwoPlane when MsgID
	// is 0.
	Beacon bool
	// Volatile marks a beacon whose encoded bytes differ between sends,
	// disabling the per-channel beacon byte caches and coalescing that
	// assume a beacon kind is identical every time. Meaningless without
	// Beacon.
	Volatile bool
	// Suspicion marks a payload carrying failure-suspicion
	// dissemination; sends are counted in Stats.SuspicionFrames.
	Suspicion bool
}

// binReg is the registry. Lookups are lock-free — the codec paths hit
// them once per frame on both the encode and decode side, and a shared
// RWMutex there is a measurable fraction of the wire budget; the mutex
// only serializes (rare, init-time) registration.
var binReg = struct {
	sync.Mutex // serializes registration; readers never take it
	byKind     [256]atomic.Pointer[payloadCodec]
	byType     sync.Map // reflect.Type → *payloadCodec
}{}

func registerBinary(kind byte, proto any, enc func(*Encoder, any), dec func(*Decoder) any, empty bool, class PayloadClass) {
	if kind == 0 {
		panic("transport: kind 0 is never assigned")
	}
	c := &payloadCodec{
		kind: kind, typ: reflect.TypeOf(proto), empty: empty,
		beacon: class.Beacon, volatile: class.Volatile, suspicion: class.Suspicion,
		proto: proto, enc: enc, dec: dec,
	}
	binReg.Lock()
	defer binReg.Unlock()
	if prev := binReg.byKind[kind].Load(); prev != nil {
		panic(fmt.Sprintf("transport: kind %d already registered to %v", kind, prev.typ))
	}
	if _, dup := binReg.byType.Load(c.typ); dup {
		panic(fmt.Sprintf("transport: %v already has a binary codec", c.typ))
	}
	binReg.byKind[kind].Store(c)
	binReg.byType.Store(c.typ, c)
}

// RegisterBinaryPayload gives a payload type a hand-rolled binary codec at
// the given kind tag (≥ 16 for layers outside this package). enc must
// write and dec must read exactly the same field sequence.
func RegisterBinaryPayload(kind byte, proto any, enc func(*Encoder, any), dec func(*Decoder) any) {
	registerBinary(kind, proto, enc, dec, false, PayloadClass{})
}

// RegisterEmptyPayload registers a fieldless payload type: it costs one
// kind byte on the wire and decodes to a canonical value with zero
// allocations.
func RegisterEmptyPayload(kind byte, proto any) {
	registerBinary(kind, proto, nil, nil, true, PayloadClass{})
}

// RegisterBeaconPayload registers a fieldless liveness beacon. Beacons get
// the fast path end to end: cached per-channel encodings (a steady-state
// beacon send allocates nothing), no mux sequencing, and coalescing of
// duplicates queued behind a slow link.
func RegisterBeaconPayload(kind byte, proto any) {
	registerBinary(kind, proto, nil, nil, true, PayloadClass{Beacon: true})
}

// RegisterClassedPayload registers a binary payload with explicit wire
// treatment. It exists for payloads outside the fixed registration
// shapes above — e.g. a suspicion digest is a beacon (rides the datagram
// plane at cadence) but Volatile (its entries change between sends, so
// byte caches must not apply) and Suspicion (its sends are the cost the
// digest experiment measures).
func RegisterClassedPayload(kind byte, proto any, enc func(*Encoder, any), dec func(*Decoder) any, class PayloadClass) {
	registerBinary(kind, proto, enc, dec, false, class)
}

func binCodecFor(v any) *payloadCodec {
	if c, ok := binReg.byType.Load(reflect.TypeOf(v)); ok {
		return c.(*payloadCodec)
	}
	return nil
}

func binCodecByKind(kind byte) *payloadCodec {
	return binReg.byKind[kind].Load()
}

// muxHello announces which unordered peer pair a freshly dialed mux
// connection serves: From is the initiating end, To the accepted end. It
// never reaches handlers.
type muxHello struct{}

func init() {
	RegisterBeaconPayload(kindMuxHello, muxHello{})
	registerCoreCodecs()
}

// --- Encoder / Decoder -------------------------------------------------------

// Encoder appends wire primitives to a byte slice. The zero value is
// ready to use; Bytes returns the accumulated encoding.
type Encoder struct{ b []byte }

// Bytes returns the encoded bytes accumulated so far.
func (e *Encoder) Bytes() []byte { return e.b }

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.b = append(e.b, v) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Float64 appends an IEEE-754 double as its fixed 8-byte big-endian bit
// pattern (suspicion levels are unbounded reals; varints buy nothing).
func (e *Encoder) Float64(v float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// String appends a uvarint length followed by the raw bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a uvarint length followed by the raw bytes, for opaque
// byte-slice payload fields (bulk traffic riding the group's wire).
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.b = append(e.b, b...)
}

// Decoder reads wire primitives from a byte slice. After any failure every
// subsequent read returns a zero value and Err reports the first error —
// codecs read their whole field sequence and check Err once. Decoded
// values never alias the input buffer (strings are copied), so callers may
// pool and reuse it.
type Decoder struct {
	b      []byte
	off    int
	err    error
	intern map[string]string // optional: long-lived readers dedup strings
}

// NewDecoder returns a Decoder over b, for sub-encodings that reuse the
// wire primitives outside a Frame (e.g. application snapshots riding
// ViewSync).
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

func (d *Decoder) reset(b []byte) {
	d.b, d.off, d.err = b, 0, nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: decode: truncated or corrupt %s at offset %d", what, d.off)
	}
}

// Err reports the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Float64 reads a fixed 8-byte big-endian IEEE-754 double.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bool reads a one-byte bool.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// String reads a uvarint-length-prefixed string (always a copy of the
// input, interned on long-lived readers).
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string")
		return ""
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	// Intern only plausibly-repeating short strings (process identifiers
	// are a handful of bytes), and bound the entry count, so adversarial
	// input cannot pin unbounded memory to a long-lived reader.
	if d.intern != nil && len(b) <= 64 {
		if s, ok := d.intern[string(b)]; ok {
			return s
		}
		s := string(b)
		if len(d.intern) < 1024 {
			d.intern[s] = s
		}
		return s
	}
	return string(b)
}

// Blob reads a uvarint-length-prefixed byte slice (always a copy of the
// input — the buffer may be pooled). An empty blob decodes to nil.
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("blob")
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:d.off+int(n)])
	d.off += int(n)
	return out
}

// BlobInto reads a uvarint-length-prefixed byte slice like Blob, but
// copies it into arena's spare capacity instead of a fresh allocation,
// returning the blob and the extended arena. Batch codecs size the arena
// once (total remaining input is an upper bound on total blob bytes) and
// decode every body into it — one allocation per batch instead of one per
// element. The returned blob is capacity-clipped, so appends to it cannot
// clobber a neighbor. An empty blob decodes to nil.
func (d *Decoder) BlobInto(arena []byte) (blob, out []byte) {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil, arena
	}
	if n > uint64(d.Remaining()) {
		d.fail("blob")
		return nil, arena
	}
	start := len(arena)
	arena = append(arena, d.b[d.off:d.off+int(n)]...)
	d.off += int(n)
	return arena[start:len(arena):len(arena)], arena
}

// Count reads a slice length and bounds it by the minimum wire size of
// one element against the remaining input — the safe way for external
// payload codecs to size their element loops (see count).
func (d *Decoder) Count(minElem int) int { return d.count(minElem) }

// count reads a slice length and bounds it by the minimum wire size of
// one element against the remaining input, so a corrupt count cannot
// force an allocation larger than the input that carried it.
func (d *Decoder) count(minElem int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	// Divide, don't multiply: n*minElem can wrap for a hostile 64-bit
	// count and slip past the bound as a small (or negative) number.
	if n > uint64(d.Remaining())/uint64(minElem) {
		d.fail("count")
		return 0
	}
	return int(n)
}

// prealloc clamps a decoded count to a sane initial capacity; append
// grows honest slices past it.
func prealloc(n int) int {
	if n > 1024 {
		return 1024
	}
	return n
}

// --- Frame encode / decode ---------------------------------------------------

// encBufs pools encode scratch buffers: the steady-state wire path
// allocates nothing per frame beyond what the caller retains.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. A payload type with no registered binary codec is an error.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	c := binCodecFor(f.Body)
	if c == nil {
		return nil, fmt.Errorf("transport: no binary codec for payload type %T", f.Body)
	}
	e := Encoder{b: dst}
	e.Byte(c.kind)
	e.String(f.From)
	e.String(f.To)
	e.Uvarint(f.Seq)
	e.Varint(f.MsgID)
	if !c.empty {
		c.enc(&e, f.Body)
	}
	return e.b, nil
}

// EncodeFrame renders f as a self-contained byte blob (pooled scratch
// space, exact-size result — safe to retain, queue, or duplicate).
func EncodeFrame(f Frame) ([]byte, error) {
	bp := encBufs.Get().(*[]byte)
	b, err := AppendFrame((*bp)[:0], f)
	if err != nil {
		encBufs.Put(bp)
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b[:0]
	encBufs.Put(bp)
	return out, nil
}

// DecodeFrame parses a blob produced by AppendFrame/EncodeFrame.
func DecodeFrame(b []byte) (Frame, error) {
	var d Decoder
	d.reset(b)
	return decodeFrame(&d)
}

func decodeFrame(d *Decoder) (Frame, error) {
	if d.Remaining() == 0 {
		return Frame{}, fmt.Errorf("transport: decode empty frame")
	}
	kind := d.Byte()
	c := binCodecByKind(kind)
	if c == nil {
		return Frame{}, fmt.Errorf("transport: unknown payload kind %d", kind)
	}
	f := Frame{From: d.String(), To: d.String(), Seq: d.Uvarint(), MsgID: d.Varint()}
	if c.empty {
		f.Body = c.proto
	} else {
		f.Body = c.dec(d)
	}
	if err := d.Err(); err != nil {
		return Frame{}, err
	}
	if d.Remaining() != 0 {
		return Frame{}, fmt.Errorf("transport: %d trailing bytes after kind-%d frame", d.Remaining(), kind)
	}
	return f, nil
}

// WriteFrame writes f to w as a 4-byte big-endian length prefix followed
// by the wire body, in a single Write (one syscall per frame on sockets).
func WriteFrame(w io.Writer, f Frame) error {
	bp := encBufs.Get().(*[]byte)
	b, err := AppendFrame(append((*bp)[:0], 0, 0, 0, 0), f)
	if err != nil {
		encBufs.Put(bp)
		return err
	}
	body := len(b) - 4
	if body > maxFrame {
		*bp = b[:0]
		encBufs.Put(bp)
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(body))
	_, err = w.Write(b)
	*bp = b[:0]
	encBufs.Put(bp)
	return err
}

// ReadFrame reads one length-prefixed frame from r. The body buffer is
// pooled — decoded frames never alias it.
func ReadFrame(r io.Reader) (Frame, error) {
	var fr frameReader
	fr.r = r
	return fr.read()
}

// frameReader reads length-prefixed frames from one stream with a
// reusable body buffer and string interning: the steady-state read path
// of a mux connection allocates nothing for beacons and only the payload
// for protocol frames.
type frameReader struct {
	r   io.Reader
	hdr [4]byte // field, not a local: a local would escape through io.ReadFull
	buf []byte
	dec Decoder
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, dec: Decoder{intern: make(map[string]string)}}
}

func (fr *frameReader) read() (Frame, error) {
	body, err := fr.readBody()
	if err != nil {
		return Frame{}, err
	}
	fr.dec.reset(body)
	return decodeFrame(&fr.dec)
}

// readBody reads one length-prefixed frame body into the reader's
// reusable buffer. The returned slice is valid only until the next call.
func (fr *frameReader) readBody() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// --- Core vocabulary codecs --------------------------------------------------

func putProcID(e *Encoder, p ids.ProcID) {
	e.String(p.Site)
	e.Uvarint(uint64(p.Incarnation))
}

func getProcID(d *Decoder) ids.ProcID {
	site := d.String()
	inc := d.Uvarint()
	if inc > math.MaxUint32 {
		d.fail("incarnation")
		return ids.Nil
	}
	return ids.ProcID{Site: site, Incarnation: uint32(inc)}
}

func putProcIDs(e *Encoder, s []ids.ProcID) {
	e.Uvarint(uint64(len(s)))
	for _, p := range s {
		putProcID(e, p)
	}
}

func getProcIDs(d *Decoder) []ids.ProcID {
	n := d.count(2) // site length prefix + incarnation, ≥ 2 bytes each
	if n == 0 {
		return nil
	}
	out := make([]ids.ProcID, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, getProcID(d))
	}
	return out
}

func putOp(e *Encoder, op member.Op) {
	e.Byte(byte(op.Kind))
	putProcID(e, op.Target)
}

func getOp(d *Decoder) member.Op {
	kind := d.Byte()
	return member.Op{Kind: member.OpKind(kind), Target: getProcID(d)}
}

func putVer(e *Encoder, v member.Version) { e.Varint(int64(v)) }

func getVer(d *Decoder) member.Version { return member.Version(d.Varint()) }

func putSeq(e *Encoder, s member.Seq) {
	e.Uvarint(uint64(len(s)))
	for _, op := range s {
		putOp(e, op)
	}
}

func getSeq(d *Decoder) member.Seq {
	n := d.count(3) // op kind + process id, ≥ 3 bytes each
	if n == 0 {
		return nil
	}
	out := make(member.Seq, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, getOp(d))
	}
	return out
}

func putNext(e *Encoder, next member.Next) {
	e.Uvarint(uint64(len(next)))
	for _, t := range next {
		putOp(e, t.Op)
		putProcID(e, t.Coord)
		putVer(e, t.Ver)
		e.Bool(t.Wildcard)
	}
}

func getNext(d *Decoder) member.Next {
	n := d.count(7) // op + coord id + version + wildcard, ≥ 7 bytes each
	if n == 0 {
		return nil
	}
	out := make(member.Next, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, member.Triple{Op: getOp(d), Coord: getProcID(d), Ver: getVer(d), Wildcard: d.Bool()})
	}
	return out
}

func registerCoreCodecs() {
	registerBinary(kindInvite, core.Invite{},
		func(e *Encoder, v any) {
			m := v.(core.Invite)
			putOp(e, m.Op)
			putVer(e, m.Ver)
		},
		func(d *Decoder) any {
			return core.Invite{Op: getOp(d), Ver: getVer(d)}
		}, false, PayloadClass{})

	registerBinary(kindOK, core.OK{},
		func(e *Encoder, v any) { putVer(e, v.(core.OK).Ver) },
		func(d *Decoder) any { return core.OK{Ver: getVer(d)} }, false, PayloadClass{})

	registerBinary(kindCommit, core.Commit{},
		func(e *Encoder, v any) {
			m := v.(core.Commit)
			putOp(e, m.Op)
			putVer(e, m.Ver)
			putOp(e, m.Next)
			putVer(e, m.NextVer)
			putProcIDs(e, m.Faulty)
			putProcIDs(e, m.Recovered)
		},
		func(d *Decoder) any {
			return core.Commit{
				Op: getOp(d), Ver: getVer(d),
				Next: getOp(d), NextVer: getVer(d),
				Faulty: getProcIDs(d), Recovered: getProcIDs(d),
			}
		}, false, PayloadClass{})

	registerBinary(kindInterrogate, core.Interrogate{}, nil, nil, true, PayloadClass{})

	registerBinary(kindInterrogateOK, core.InterrogateOK{},
		func(e *Encoder, v any) {
			m := v.(core.InterrogateOK)
			putVer(e, m.Ver)
			putSeq(e, m.Seq)
			putNext(e, m.Next)
			putProcIDs(e, m.Faulty)
		},
		func(d *Decoder) any {
			return core.InterrogateOK{Ver: getVer(d), Seq: getSeq(d), Next: getNext(d), Faulty: getProcIDs(d)}
		}, false, PayloadClass{})

	registerBinary(kindPropose, core.Propose{},
		func(e *Encoder, v any) {
			m := v.(core.Propose)
			putSeq(e, m.RL)
			putVer(e, m.Ver)
			putOp(e, m.Invis)
			putProcIDs(e, m.Faulty)
		},
		func(d *Decoder) any {
			return core.Propose{RL: getSeq(d), Ver: getVer(d), Invis: getOp(d), Faulty: getProcIDs(d)}
		}, false, PayloadClass{})

	registerBinary(kindProposeOK, core.ProposeOK{},
		func(e *Encoder, v any) { putVer(e, v.(core.ProposeOK).Ver) },
		func(d *Decoder) any { return core.ProposeOK{Ver: getVer(d)} }, false, PayloadClass{})

	registerBinary(kindReconfCommit, core.ReconfCommit{},
		func(e *Encoder, v any) {
			m := v.(core.ReconfCommit)
			putSeq(e, m.RL)
			putVer(e, m.Ver)
			putOp(e, m.Invis)
			putProcIDs(e, m.Faulty)
		},
		func(d *Decoder) any {
			return core.ReconfCommit{RL: getSeq(d), Ver: getVer(d), Invis: getOp(d), Faulty: getProcIDs(d)}
		}, false, PayloadClass{})

	// FaultyReport is the point-to-point suspicion vocabulary (direct
	// reports to the coordinator and the topology relay flood), so it is
	// the relay arm of the SuspicionFrames cost comparison.
	registerBinary(kindFaultyReport, core.FaultyReport{},
		func(e *Encoder, v any) { putProcID(e, v.(core.FaultyReport).Suspect) },
		func(d *Decoder) any { return core.FaultyReport{Suspect: getProcID(d)} }, false, PayloadClass{Suspicion: true})

	registerBinary(kindJoinRequest, core.JoinRequest{},
		func(e *Encoder, v any) { putProcID(e, v.(core.JoinRequest).Joiner) },
		func(d *Decoder) any { return core.JoinRequest{Joiner: getProcID(d)} }, false, PayloadClass{})

	registerBinary(kindStateTransfer, core.StateTransfer{},
		func(e *Encoder, v any) {
			m := v.(core.StateTransfer)
			putProcIDs(e, m.Members)
			putVer(e, m.Ver)
			putSeq(e, m.Seq)
			putProcID(e, m.Coord)
			putOp(e, m.Next)
			putVer(e, m.NextVer)
		},
		func(d *Decoder) any {
			return core.StateTransfer{
				Members: getProcIDs(d), Ver: getVer(d), Seq: getSeq(d),
				Coord: getProcID(d), Next: getOp(d), NextVer: getVer(d),
			}
		}, false, PayloadClass{})
}
