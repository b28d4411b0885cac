// Command perfbench is the repository's benchmark: it runs one of four fixed
// workloads through the simulator's public entry points for a fixed host
// time, checks every repetition's simulated output, and prints host-cost
// metrics. See README.md in this directory for the workloads, the metrics
// and the correctness gate.
//
//	perfbench -workload kv-ads -seed 3 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones, measured untraced; with -trace 1 a separate traced run
// reports the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// conditions are the host conditions a result was measured under; records
// are comparable only when these and the workload hash agree.
type conditions struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	ShardWorkers int    `json:"shard_workers"` // 0: single-domain, no shard engine
	GoVersion    string `json:"go_version"`
	GCPercent    int    `json:"gc_percent"`
}

// record is a result with everything needed to compare it to another: the
// conditions, the workload hash and the seed.
type record struct {
	Workload     string     `json:"workload"`
	WorkloadHash string     `json:"workload_hash"`
	Seed         int64      `json:"seed"`
	Seeded       bool       `json:"seeded"`
	Trace        bool       `json:"trace"`
	Conditions   conditions `json:"conditions"`
	OutputHash   string     `json:"output_hash"`
	// HostStealPct is the share of the machine's CPU time the hypervisor
	// took during the run. It is not a condition records must match, but
	// a run under heavy steal reads slower: compare it before reading a
	// difference between two records as a change in the program.
	HostStealPct float64 `json:"host_steal_pct"`
	Result       result  `json:"result"`
}

func main() {
	// Pinned like cmd/ccbench: the simulations allocate warm-up objects
	// fast and retain little, so the default GOGC=100 spends much of the
	// run re-scanning stable page tables. An explicit GOGC wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	name := flag.String("workload", "", "workload `name`: loopback-64b, kv-ads, cluster-spread or cluster-chaos")
	seed := flag.Int64("seed", 1, "input `seed` (loopback-64b and cluster-spread have no random input)")
	seconds := flag.Float64("seconds", 10, "host `seconds` to measure for")
	trace := flag.Int("trace", 0, "1: run the separate traced run and report per-layer metrics")
	outDir := flag.String("outdir", "", "`dir` for the run's record and trace files (none when empty)")
	baseline := flag.String("baseline", "", "compare with a previous record `file`; refused unless workload and conditions match")
	goldenOut := flag.String("record-golden", "", fmt.Sprintf("record output hashes for seeds 0-%d into golden `file` and exit", goldenSeeds-1))
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fatalf("perfbench: unknown workload %q", *name)
	}
	if *goldenOut != "" {
		if err := recordGolden(w, *goldenOut); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("perfbench: -seconds must be positive and -trace 0 or 1")
	}
	if !w.seeded {
		fmt.Fprintf(os.Stderr, "perfbench: %s has no random input; seed %d changes nothing\n", w.name, *seed)
	}

	gate, err := newGate(w, *seed)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var tr *tracer
	steal0, start := stealTime(), time.Now()
	if *trace == 1 {
		tr = newTracer()
		res = tracedRun(w, *seed, budget, gate, tr)
	} else {
		res = timedRun(w, *seed, budget, gate)
	}
	steal := stealShare(stealTime()-steal0, time.Since(start))

	rec := record{
		Workload:     w.name,
		WorkloadHash: workloadHash(w),
		Seed:         *seed,
		Seeded:       w.seeded,
		Trace:        *trace == 1,
		Conditions:   currentConditions(w),
		OutputHash:   gate.hash,
		HostStealPct: 100 * steal,
		Result:       res,
	}
	if *baseline != "" {
		if err := compareBaseline(*baseline, rec); err != nil {
			fatalf("perfbench: %v", err)
		}
	}
	if *outDir != "" {
		if err := writeOutputs(*outDir, rec, tr); err != nil {
			fatalf("perfbench: %v", err)
		}
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Printf("record %s\n", recLine)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(line))
}

// rep is one repetition: build, run, check.
type rep struct {
	setup, wall, cpu time.Duration
	out              outcome
	err              error
}

// runRep builds w for seed on workers shard workers, runs it and checks
// its output against the gate. The heap is collected and returned to the
// OS before the build, so every repetition starts from the same state, as
// a fresh process would; only the run is timed as wall and CPU time. tr,
// when non-nil, gets a span around each of the workload's public calls, and
// rp, when non-nil, sums the runtime counters over the timed run; both are
// read outside the timed part.
func runRep(w *workload, seed int64, workers int, gate *gate, tr *tracer, rp *runPhase) (r rep) {
	id := tr.begin(fmt.Sprintf("repetition (%d workers)", workers), "bench")
	defer tr.end(id)
	debug.FreeOSMemory()
	call := tr.begin(w.calls[0], w.name)
	defer func() { tr.end(call) }()
	var inst instance
	t0 := time.Now()
	if err := catch(func() { inst = w.build(seed, workers) }); err != nil {
		r.err = fmt.Errorf("build: %w", err)
		return r
	}
	r.setup = time.Since(t0)
	defer inst.close()

	tr.end(call)
	rp.begin()
	call = tr.begin(w.calls[1], w.name)
	c0 := cpuTime()
	t1 := time.Now()
	err := inst.run()
	r.wall = time.Since(t1)
	r.cpu = cpuTime() - c0
	tr.end(call)
	rp.end()
	call = tr.begin(w.calls[2], w.name)
	if err != nil {
		r.err = fmt.Errorf("run: %w", err)
		return r
	}
	out, err := inst.result()
	if err != nil {
		r.err = fmt.Errorf("invariant: %w", err)
		return r
	}
	r.out = out
	r.err = gate.check(out)
	return r
}

// timedRun repeats w for the budget with tracing off and reports the
// end-to-end metrics: medians over the passing repetitions.
func timedRun(w *workload, seed int64, budget time.Duration, gate *gate) result {
	var rates, cpus, setups []float64
	res := result{Metrics: map[string]metric{}}
	start := time.Now()
	for res.Attempted == 0 || time.Since(start) < budget {
		r := runRep(w, seed, w.workers, gate, nil, nil)
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d repetition %d failed: %v\n", w.name, seed, res.Attempted, r.err)
			continue
		}
		rates = append(rates, float64(r.out.work)/r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		setups = append(setups, r.setup.Seconds())
	}
	res.Correct = res.Failed == 0
	res.Metrics["sim_work_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetitions (%d failed), work unit: %s, output %s\n",
		w.name, seed, res.Attempted, res.Failed, w.unit, gate.hash)
	return res
}

func currentConditions(w *workload) conditions {
	gc := debug.SetGCPercent(-1)
	debug.SetGCPercent(gc)
	return conditions{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ShardWorkers: w.workers,
		GoVersion:    runtime.Version(),
		GCPercent:    gc,
	}
}

// compareBaseline refuses a baseline record of another workload, seed
// class or host conditions; otherwise it prints each metric's ratio to the
// baseline on standard error.
func compareBaseline(path string, rec record) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base record
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	switch {
	case base.Workload != rec.Workload || base.WorkloadHash != rec.WorkloadHash:
		return fmt.Errorf("baseline %s refused: workload %s/%s, this run %s/%s",
			path, base.Workload, base.WorkloadHash, rec.Workload, rec.WorkloadHash)
	case base.Conditions != rec.Conditions:
		return fmt.Errorf("baseline %s refused: conditions %+v, this run %+v", path, base.Conditions, rec.Conditions)
	case base.Trace != rec.Trace:
		return fmt.Errorf("baseline %s refused: traced and untraced runs are not comparable", path)
	}
	fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%%, baseline %.1f%%\n", rec.HostStealPct, base.HostStealPct)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, b := rec.Result.Metrics[n], base.Result.Metrics[n]
		if b.Value != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %-32s %14.6g %-6s baseline %14.6g (x%.3f)\n", n, m.Value, m.Unit, b.Value, m.Value/b.Value)
		}
	}
	return nil
}

// writeOutputs writes the record and, for a traced run, its spans.
func writeOutputs(dir string, rec record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, btoi(rec.Trace)))
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".record.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.write(base + ".spans.json")
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("perfbench: getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot, summed over CPUs: the steal column of
// /proc/stat, in USER_HZ (1/100 s) ticks. It is 0 where that is not
// available.
func stealTime() time.Duration {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stealShare is stolen time as a share of the machine's CPU time over wall.
func stealShare(stolen, wall time.Duration) float64 {
	return stolen.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("perfbench: getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
