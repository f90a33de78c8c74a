// E15: the live wire path, measured. Unlike the simulator experiments,
// these are machine-dependent microbenchmarks, so alongside the printed
// table the results can be emitted as BENCH_transport.json
// (-transport-out) to keep the perf trajectory machine-readable across
// PRs.
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
	"procgroup/internal/transport"
)

// transportOut is the -transport-out flag: path of the JSON report.
var transportOut string

// codecArm is one benchmark arm's result.
type codecArm struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func arm(r testing.BenchmarkResult) codecArm {
	return codecArm{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// transportReport is the BENCH_transport.json schema.
type transportReport struct {
	GeneratedBy string   `json:"generated_by"`
	Env         benchEnv `json:"env"`
	Codec       struct {
		BinaryEncode    codecArm `json:"binary_encode"`
		BinaryRoundtrip codecArm `json:"binary_roundtrip"`
		GobEncode       codecArm `json:"gob_encode"`
		GobRoundtrip    codecArm `json:"gob_roundtrip"`
		// RoundtripAllocRatio is gob allocs/op over binary allocs/op —
		// the tentpole's acceptance bar is ≥ 10.
		RoundtripAllocRatio float64 `json:"roundtrip_alloc_ratio_gob_over_binary"`
	} `json:"codec"`
	TCP struct {
		FramesPerSec      float64 `json:"frames_per_sec"`
		HeartbeatAllocsOp int64   `json:"heartbeat_send_allocs_per_op"`
	} `json:"tcp"`
	// Saturation is E18: detector quality per wire plane while a
	// neighbor floods its link (see saturation.go).
	Saturation []satArm `json:"saturation"`
}

// benchWireFrames mirrors internal/transport's BenchmarkFrameCodec mix.
func benchWireFrames() []transport.Frame {
	p3 := ids.ProcID{Site: "p3", Incarnation: 2}
	return []transport.Frame{
		{From: "p1", To: "p2", Seq: 1, MsgID: 42, Body: core.OK{Ver: 4}},
		{From: "p1", To: "p3#2", Seq: 2, MsgID: 43, Body: core.Invite{Op: member.Remove(p3), Ver: 4}},
		{From: "p1", To: "p2", Seq: 3, MsgID: 44, Body: core.Commit{
			Op: member.Remove(p3), Ver: 4,
			Next: member.Add(ids.Named("q1")), NextVer: 5,
			Faulty: []ids.ProcID{p3}, Recovered: []ids.ProcID{ids.Named("q1")},
		}},
		{From: "p2", To: "p1", Seq: 4, MsgID: 45, Body: core.Interrogate{}},
	}
}

// The gob arms are the comparator the binary codec is measured against:
// one self-contained gob blob per frame, re-carrying its type wiring
// every time. The wire itself has no gob path.
func init() {
	for _, v := range []any{core.OK{}, core.Invite{}, core.Commit{}, core.Interrogate{}} {
		gob.Register(v)
	}
}

func encodeFrameGob(f transport.Frame) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(f)
	return buf.Bytes(), err
}

func decodeFrameGob(b []byte) (transport.Frame, error) {
	var f transport.Frame
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f)
	return f, err
}

// gmpbenchBeacon is the beacon payload for the heartbeat-allocation arm.
type gmpbenchBeacon struct{}

func init() { transport.RegisterBeaconPayload(201, gmpbenchBeacon{}) }

func transportPerf(int64) {
	fmt.Println("== E15 · live wire path: binary codec vs gob, mux throughput ==")
	frames := benchWireFrames()

	var rep transportReport
	rep.GeneratedBy = "gmpbench -exp transport"
	rep.Env = captureEnv()

	rep.Codec.BinaryEncode = arm(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = transport.AppendFrame(buf[:0], frames[i%len(frames)])
		}
	}))
	rep.Codec.BinaryRoundtrip = arm(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = transport.AppendFrame(buf[:0], frames[i%len(frames)])
			if _, err := transport.DecodeFrame(buf); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Codec.GobEncode = arm(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeFrameGob(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Codec.GobRoundtrip = arm(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := encodeFrameGob(frames[i%len(frames)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := decodeFrameGob(blob); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if rep.Codec.BinaryRoundtrip.AllocsPerOp > 0 {
		rep.Codec.RoundtripAllocRatio =
			float64(rep.Codec.GobRoundtrip.AllocsPerOp) / float64(rep.Codec.BinaryRoundtrip.AllocsPerOp)
	}

	rep.TCP.FramesPerSec = tcpFramesPerSec()
	rep.TCP.HeartbeatAllocsOp = heartbeatAllocs()

	w := tw()
	fmt.Fprintln(w, "arm\tns/op\tallocs/op\tB/op")
	fmt.Fprintf(w, "binary encode\t%.0f\t%d\t%d\n", rep.Codec.BinaryEncode.NsPerOp, rep.Codec.BinaryEncode.AllocsPerOp, rep.Codec.BinaryEncode.BytesPerOp)
	fmt.Fprintf(w, "binary roundtrip\t%.0f\t%d\t%d\n", rep.Codec.BinaryRoundtrip.NsPerOp, rep.Codec.BinaryRoundtrip.AllocsPerOp, rep.Codec.BinaryRoundtrip.BytesPerOp)
	fmt.Fprintf(w, "gob encode\t%.0f\t%d\t%d\n", rep.Codec.GobEncode.NsPerOp, rep.Codec.GobEncode.AllocsPerOp, rep.Codec.GobEncode.BytesPerOp)
	fmt.Fprintf(w, "gob roundtrip\t%.0f\t%d\t%d\n", rep.Codec.GobRoundtrip.NsPerOp, rep.Codec.GobRoundtrip.AllocsPerOp, rep.Codec.GobRoundtrip.BytesPerOp)
	w.Flush()
	fmt.Printf("roundtrip alloc ratio (gob/binary): %.1f×  (bar: ≥10×)\n", rep.Codec.RoundtripAllocRatio)
	fmt.Printf("mux throughput: %.0f frames/sec through one pair connection\n", rep.TCP.FramesPerSec)
	fmt.Printf("heartbeat send: %d allocs/op (bar: 0)\n", rep.TCP.HeartbeatAllocsOp)

	fmt.Println()
	rep.Saturation = satPerf()

	if transportOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "transport report:", err)
			return
		}
		if err := os.WriteFile(transportOut, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "transport report:", err)
			return
		}
		fmt.Println("wrote", transportOut)
	}
}

// warmUp retries a first frame until one lands (warm-ups can
// legitimately drop), bounded by a deadline; reports success.
func warmUp(send func(), received *atomic.Int64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() == 0 {
		send()
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "transport: warm-up frame never delivered")
			return false
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let retried warm-ups land before counting
	received.Store(0)
	return true
}

// tcpFramesPerSec pushes frames through one mux connection end to end and
// reports the steady-state rate (windowed so the bounded queue never
// drops).
func tcpFramesPerSec() float64 {
	tr := transport.NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var received atomic.Int64
	if err := tr.Register(a, func(ids.ProcID, transport.Message) {}); err != nil {
		return 0
	}
	if err := tr.Register(b, func(ids.ProcID, transport.Message) { received.Add(1) }); err != nil {
		return 0
	}
	if !warmUp(func() { tr.Send(a, b, transport.Message{MsgID: 1, Payload: core.OK{}}) }, &received) {
		return 0
	}

	const n, window = 200_000, 512
	start := time.Now()
	for i := 0; i < n; i++ {
		for int64(i)-received.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		tr.Send(a, b, transport.Message{MsgID: int64(i + 1), Payload: core.OK{Ver: member.Version(i)}})
	}
	for received.Load() < n {
		time.Sleep(50 * time.Microsecond)
	}
	return float64(n) / time.Since(start).Seconds()
}

// heartbeatAllocs measures allocations per beacon delivery — each op
// sends one beacon and waits for it to land, so the whole enqueue →
// cached-encode → write → read → route path is exercised (never the
// coalescing early-return). The fast path's acceptance bar is 0.
func heartbeatAllocs() int64 {
	tr := transport.NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var received atomic.Int64
	if err := tr.Register(a, func(ids.ProcID, transport.Message) {}); err != nil {
		return -1
	}
	if err := tr.Register(b, func(ids.ProcID, transport.Message) { received.Add(1) }); err != nil {
		return -1
	}
	if !warmUp(func() { tr.Send(a, b, transport.Message{Payload: gmpbenchBeacon{}}) }, &received) {
		return -1
	}
	return testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			tr.Send(a, b, transport.Message{Payload: gmpbenchBeacon{}})
			for received.Load() < int64(i+1) {
				// Sleep, don't spin: a busy wait starves the netpoller
				// on small GOMAXPROCS and measures sysmon's 10ms tick.
				time.Sleep(10 * time.Microsecond)
			}
		}
	}).AllocsPerOp()
}
