package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// span is one traced interval around a call of the benchmark into a layer.
// Spans nest: Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; begin and end do
// nothing on a nil tracer.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // IDs of the spans not yet ended, innermost last

	// The profiled repetitions' CPU by layer, and the shares derived.
	profileNS map[string]int64
	shares    map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span inside the innermost open one and returns its ID.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfByLayer sums each layer's span self time: a span's duration minus the
// part its child spans cover.
func (t *tracer) selfByLayer() map[string]int64 {
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start
		if s.Parent != 0 {
			self[t.spans[s.Parent-1].Layer] -= s.End - s.Start
		}
	}
	return self
}

// write writes the spans, each layer's span self time, and the profile's
// CPU by layer.
func (t *tracer) write(path string) error {
	buf, err := json.MarshalIndent(struct {
		Spans     []span             `json:"spans"`
		SelfNS    map[string]int64   `json:"self_ns_by_layer"`
		ProfileNS map[string]int64   `json:"profile_cpu_ns_by_layer"`
		Shares    map[string]float64 `json:"cpu_share_pct"`
	}{t.spans, t.selfByLayer(), t.profileNS, t.shares}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runtimeCounters are the runtime/metrics counters the traced run reads.
var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

type runtimeSample map[string]float64

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	out := runtimeSample{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		}
	}
	return out
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	out := runtimeSample{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// runPhase sums the runtime counters over the timed parts of repetitions;
// begin and end do nothing on a nil runPhase.
type runPhase struct {
	sum, before runtimeSample
	runs        int
}

func (a *runPhase) begin() {
	if a != nil {
		a.before = readRuntime()
	}
}

func (a *runPhase) end() {
	if a == nil {
		return
	}
	for k, v := range readRuntime().minus(a.before) {
		a.sum[k] += v
	}
	a.runs++
}

// tracedRun is the separate traced run. It runs every micro-driver, then
// repeats the workload for half the budget under the CPU profiler, then for
// the other half untraced: the untraced repetitions give the tracing
// overhead and, for a workload with a shard engine, alternate between 1 and
// 2 workers to measure the engine's parallel speedup.
func tracedRun(w *workload, seed int64, budget time.Duration, g *gate, tr *tracer) result {
	res := result{Metrics: map[string]metric{}}
	m := map[string]float64{}
	root := tr.begin("traced run "+w.name, "bench")
	defer tr.end(root)

	id := tr.begin("micro-drivers", "bench")
	runMicro(tr, m)
	tr.end(id)

	// Profiled repetitions. The runtime updates its CPU-class counters
	// only when a GC cycle ends, so a forced GC brackets the window.
	id = tr.begin("profiled repetitions", "bench")
	var prof bytes.Buffer
	runtime.GC()
	cpu0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fatalf("perfbench: %v", err)
	}
	rp := &runPhase{sum: runtimeSample{}}
	var profiled []rep
	start := time.Now()
	for res.Attempted < 2 || time.Since(start) < budget/2 {
		r := runRep(w, seed, w.workers, g, tr, rp)
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced repetition %d failed: %v\n", w.name, seed, res.Attempted, r.err)
			continue
		}
		profiled = append(profiled, r)
	}
	runtime.GC()
	pprof.StopCPUProfile()
	cpu := readRuntime().minus(cpu0)
	tr.end(id)

	// Untraced repetitions.
	id = tr.begin("untraced repetitions", "bench")
	rates := map[int][]float64{}
	workerSet := []int{w.workers}
	if w.workers > 1 {
		workerSet = []int{1, w.workers}
	}
	start = time.Now()
	for i := 0; i < 2*len(workerSet) || time.Since(start) < budget/2; i++ {
		workers := workerSet[i%len(workerSet)]
		r := runRep(w, seed, workers, g, tr, nil)
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d untraced repetition failed: %v\n", w.name, seed, r.err)
			continue
		}
		rates[workers] = append(rates[workers], float64(r.out.work)/r.wall.Seconds())
	}
	tr.end(id)
	res.Correct = res.Failed == 0

	if len(profiled) > 0 {
		// The simulation is deterministic: every passing repetition
		// has the same output and counts.
		layerFigures(m, tr, prof.Bytes(), cpu, rp, profiled[0].out)
		var tracedRates []float64
		for _, r := range profiled {
			tracedRates = append(tracedRates, float64(r.out.work)/r.wall.Seconds())
		}
		m["trace.sim_work_per_s"] = median(tracedRates)
		if untraced := median(rates[w.workers]); untraced > 0 {
			m["trace.overhead_pct"] = 100 * (untraced/m["trace.sim_work_per_s"] - 1)
		}
	}
	if w.workers > 1 && len(rates[1]) > 0 {
		m["shard.speedup_w2"] = median(rates[w.workers]) / median(rates[1])
	}
	for _, pm := range perLayerMetrics {
		res.Metrics[pm.name] = metric{m[pm.name], pm.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d profiled + %d untraced repetitions, %.1f%% tracing overhead\n",
		w.name, len(profiled), res.Attempted-res.Failed-len(profiled), m["trace.overhead_pct"])
	return res
}

// layerFigures adds the CPU shares and the per-work counts to m. GC's
// share comes from runtime/metrics (cpu, over the profiled window); the
// rest of the CPU is split by the profile's innermost-module-frame
// attribution. rp sums the runtime counters over the profiled repetitions'
// timed parts.
func layerFigures(m map[string]float64, tr *tracer, prof []byte, cpu runtimeSample, rp *runPhase, out outcome) {
	byLayer, err := cpuByLayer(prof)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	gc := cpu["/cpu/classes/gc/total:cpu-seconds"]
	total := gc + cpu["/cpu/classes/user:cpu-seconds"] + cpu["/cpu/classes/scavenge/total:cpu-seconds"]
	gcShare := 0.0
	if total > 0 {
		gcShare = gc / total
	}
	var nonGC int64
	for l, ns := range byLayer {
		if l != "gc" {
			nonGC += ns
		}
	}
	shares := map[string]float64{}
	for _, l := range layers {
		switch {
		case l == "gc":
			shares[l] = 100 * gcShare
		case nonGC > 0:
			shares[l] = 100 * (1 - gcShare) * float64(byLayer[l]) / float64(nonGC)
		}
		m[l+".cpu_share"] = shares[l]
	}
	tr.profileNS, tr.shares = byLayer, shares

	work := float64(out.work)
	c := out.counts
	m["sim.events_per_work"] = float64(c.events) / work
	m["coherence.remote_reads_per_work"] = float64(c.remoteReads) / work
	m["coherence.remote_rfos_per_work"] = float64(c.remoteRFOs) / work
	m["interconn.msgs_per_work"] = float64(c.linkMsgs) / work
	m["interconn.wire_bytes_per_work"] = float64(c.linkWireBytes) / work
	m["fabric.drops_per_pkt"] = ratio(c.fabricDrops, c.fabricPkts)
	m["fabric.queue_highwater"] = float64(c.queueHighWater)
	m["cluster.retx_per_rpc"] = ratio(c.retransmits, c.rpcsSent)
	m["cluster.goodput_ratio"] = ratio(c.rpcsDone, c.rpcsSent+c.retransmits)
	m["cluster.exhausted_frac"] = ratio(c.exhausted, c.rpcsSent)
	m["cluster.failovers"] = float64(c.failovers)
	runs := float64(rp.runs)
	m["gc.alloc_bytes_per_work"] = rp.sum["/gc/heap/allocs:bytes"] / runs / work
	m["gc.allocs_per_work"] = rp.sum["/gc/heap/allocs:objects"] / runs / work
	m["gc.cycles"] = rp.sum["/gc/cycles/total:gc-cycles"] / runs
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayerMetric is one per-layer metric the traced run reports. A layer
// the workload bypasses reports 0.
type perLayerMetric struct{ name, unit string }

var perLayerMetrics = func() []perLayerMetric {
	var out []perLayerMetric
	for _, l := range layers {
		out = append(out, perLayerMetric{l + ".cpu_share", "%"})
	}
	return append(out, []perLayerMetric{
		{"sim.sleep_ns", "ns"}, {"sim.switch_ns", "ns"}, {"sim.signal_ns", "ns"},
		{"sim.events_per_work", "events/work"},
		{"coherence.read_remote_ns", "ns"}, {"coherence.first_touch_ns", "ns"},
		{"coherence.first_touch_bytes", "B"},
		{"coherence.remote_reads_per_work", "reads/work"}, {"coherence.remote_rfos_per_work", "rfos/work"},
		{"interconn.msgs_per_work", "msgs/work"}, {"interconn.wire_bytes_per_work", "B/work"},
		{"ring.post_consume_ns", "ns"},
		{"bufpool.alloc_free_ns", "ns"}, {"bufpool.alloc_free_allocs", "allocs/op"},
		{"shard.round_ns", "ns"}, {"shard.send_ns", "ns"}, {"shard.speedup_w2", "x"},
		{"fabric.forward_ns", "ns"}, {"fabric.drops_per_pkt", "drops/pkt"},
		{"fabric.queue_highwater", "pkts"},
		{"cluster.retx_per_rpc", "retx/rpc"}, {"cluster.goodput_ratio", "ratio"},
		{"cluster.exhausted_frac", "ratio"}, {"cluster.failovers", "count"},
		{"gc.alloc_bytes_per_work", "B/work"}, {"gc.allocs_per_work", "allocs/work"},
		{"gc.cycles", "count"},
		{"trace.sim_work_per_s", "1/s"}, {"trace.overhead_pct", "%"},
	}...)
}()
