// Command perfbench is the repository's benchmark. It drives a live
// 5-member process group in one process through the root procgroup API
// — TCP streams plus UDP beacons on loopback, a replicated KV store with
// group commit on top — under an open-loop client load, kills and
// rejoins members, certifies the run with the GMP, total-order and
// linearizability checkers, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics timed at each layer's public interface).
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload kv-write --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one traffic mix. Every workload kills members, so every
// one yields the failover metrics: the kv workloads after their timed
// window, churn-failover throughout it.
type workload struct {
	name, why   string
	readFrac    float64 // share of ops that are reads
	localReads  bool    // reads are fenced local reads, not sequenced gets
	windowKills int     // kill-and-rejoin cycles spread over the window
	tailKills   int     // kill-and-rejoin cycles after the window
	// coordKills alternates kills between the most junior member and the
	// coordinator; otherwise only junior members die. Coordinator
	// failover is churn-failover's subject; the kv workloads kill only
	// to report the failover metrics at all, and a killed coordinator
	// occasionally is never excluded (see CHANGES.md).
	coordKills bool
}

var workloads = []workload{
	{
		name:     "kv-write",
		why:      "75% puts and 25% sequenced gets over 256 shared keys load the replication path: propose, sequencing, stability, the stream plane",
		readFrac: 0.25, tailKills: 8,
	},
	{
		name:     "kv-readmostly",
		why:      "90% fenced local reads take the stability fence and bypass sequencing, so a fence/sequencing trade-off shows here",
		readFrac: 0.9, localReads: true, tailKills: 8,
	},
	{
		name:     "churn-failover",
		why:      "16 kills and rejoins, alternating junior member and coordinator, load detection, exclusion, reconfiguration, join and state transfer",
		readFrac: 0.25, windowKills: 16, coordKills: true,
	},
}

// rate is every workload's open-loop load in ops per second. On a
// 2-vCPU VM whose hypervisor steals a varying share of the CPU, latency
// tracks the steal the more, the busier the CPUs are: at 20k ops/s whole
// runs moved between a 1.1 and a 6.5 ms median, at 5k ops/s the median
// still drifted 30% between sets of runs, at 2k ops/s it held (see
// README.md). Member kills under 20k ops/s also split or stall the
// replicas (see CHANGES.md).
const rate = 2000

// setupRuns is how many times an untraced run boots a group to time
// set-up; the median is reported and the last group is measured.
const setupRuns = 12

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-write, kv-readmostly or churn-failover")
	seed := flag.Int64("seed", 1, "seed for the op mix and keys")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <kv-write|kv-readmostly|churn-failover> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	fmt.Printf("env %s\n", envStamp())
	fmt.Printf("workload %s seed %d seconds %d trace %d: %s\n", w.name, *seed, *seconds, *traced, w.why)

	ms, printed, attempted, failed, err := run(*w, *seed, *seconds, *traced == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		fmt.Println(resultLine(false, attempted, failed, nil))
		os.Exit(1)
	}
	for _, m := range printed {
		fmt.Printf("printed %-39s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range ms {
		fmt.Printf("metric %-40s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Println(resultLine(true, attempted, failed, ms))
}

// run measures one workload: an untraced pass for the end-to-end
// metrics, or an untraced and a traced pass for the per-layer ones and
// the tracing overhead between them. It returns the result's metrics,
// the figures printed beside them, and the op counts.
func run(w workload, seed int64, seconds int, traced bool, traceDir string) ([]metric, []metric, int, int, error) {
	base, err := measure(w, seed, seconds, false)
	if err != nil {
		return nil, nil, base.attempted, base.failed, err
	}
	if !traced {
		return base.endToEnd, base.printed, base.attempted, base.failed, nil
	}
	tr, err := measure(w, seed, seconds, true)
	attempted, failed := base.attempted+tr.attempted, base.failed+tr.failed
	if err != nil {
		return nil, nil, attempted, failed, err
	}
	path, err := tr.spans.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err != nil {
		return nil, nil, attempted, failed, err
	}
	fmt.Printf("spans written to %s\n", path)
	e2e := func(p *pass, name string) float64 {
		for _, m := range append(p.endToEnd, p.printed...) {
			if m.name == name {
				return m.value
			}
		}
		return math.NaN()
	}
	overhead := func(name string) float64 {
		return e2e(tr, name)/e2e(base, name) - 1
	}
	layers := append(tr.perLayer,
		metric{"trace.overhead_write_p50_frac", overhead("write_p50_ms"), "frac", 2},
		metric{"trace.overhead_cpu_frac", overhead("cpu_us_per_op"), "frac", 2},
	)
	return layers, append(base.endToEnd, base.printed...), attempted, failed, nil
}

func ratio(n int64, d float64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / d
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func sleepUntil(c realClock, at int64) {
	if d := at - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// resultLine renders the final JSON line.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or infinity can fail here; report the run as wrong
		// rather than print a line the reader cannot parse.
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return `{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}`
	}
	return string(b)
}

// envStamp names what the numbers were measured on.
func envStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q sha=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, gitSHA())
}

// gitSHA reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a clone.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
