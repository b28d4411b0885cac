package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"ccnic"
	"ccnic/internal/cluster"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/kvstore"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// workload is one fixed input the benchmark runs through the simulator's
// public entry points. A repetition builds a fresh simulation (set-up),
// runs it for a fixed simulated duration (the timed part), then checks the
// simulated output.
type workload struct {
	name string
	// unit names one unit of simulated work (the numerator of
	// sim_work_per_s).
	unit string
	// seeded reports whether the seed changes the inputs; loopback-64b and
	// cluster-spread have no random input.
	seeded bool
	// workers is the shard-engine worker count (0: a single-domain
	// simulation on one thread, no shard engine).
	workers int
	// spec is the full configuration, hashed into workload_hash. build
	// reads its parameters from spec, so the two cannot drift apart.
	spec any
	// build constructs the simulation for seed, on workers shard workers
	// where the workload has a shard engine.
	build func(seed int64, workers int) instance
	// calls names the public calls a repetition makes to build, run and
	// check the simulation; the traced run's spans carry these names.
	calls [3]string
}

// instance is one constructed simulation.
type instance interface {
	// run executes the simulation; this is the timed part of a repetition.
	run() error
	// result reads the simulated output and runs the public invariant
	// checks; a non-nil error is a failed repetition.
	result() (outcome, error)
	// close releases the simulation's coroutines.
	close()
}

// outcome is the simulated output of one repetition.
type outcome struct {
	work int64 // simulated work units completed
	// fingerprint is the simulated output the correctness gate hashes.
	fingerprint string
	counts      counts
}

// counts are per-layer counters read from public stats after a repetition.
// A layer the workload bypasses reads zero.
type counts struct {
	events         uint64 // kernel events, all shards
	remoteReads    int64  // coherence: demand reads across the interconnect
	remoteRFOs     int64  // coherence: RFOs/upgrades across the interconnect
	linkMsgs       int64  // interconn: messages, both directions
	linkWireBytes  int64  // interconn: payload+header bytes, both directions
	fabricPkts     int64  // fabric: packets forwarded or dropped, all switches
	fabricDrops    int64  // fabric: packets dropped, all switches
	queueHighWater int    // fabric: deepest egress queue, packets
	rpcsSent       int64  // cluster: RPCs sent
	rpcsDone       int64  // cluster: RPCs completed
	retransmits    int64  // cluster: reliable-transport retransmissions
	exhausted      int64  // cluster: RPCs retired after the retry budget
	failovers      int64  // cluster: route failovers
}

// hash returns the hex SHA-256 prefix the correctness gate records.
func (o outcome) hash() string {
	sum := sha256.Sum256([]byte(o.fingerprint))
	return hex.EncodeToString(sum[:8])
}

// workloadHash hashes a workload's full configuration: its name, work
// unit, worker count and spec. Records are comparable only when it matches.
func workloadHash(w *workload) string {
	buf, err := json.Marshal(struct {
		Name, Unit string
		Seeded     bool
		Workers    int
		Spec       any
	}{w.name, w.unit, w.seeded, w.workers, w.spec})
	if err != nil {
		panic(fmt.Sprintf("perfbench: hash %s: %v", w.name, err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// workloads are the benchmark's fixed workloads, in the order they are
// listed in BENCHMARK.json.
var workloads = []*workload{
	{
		name: "loopback-64b", unit: "packets received", spec: loopbackSpec,
		build: func(int64, int) instance { return newLoopback(loopbackSpec) },
		calls: [3]string{"ccnic.NewTestbed", "Testbed.RunLoopback", "loopback result + System.CheckInvariants"},
	},
	{
		name: "kv-ads", unit: "KV ops", seeded: true, spec: kvSpec,
		build: func(seed int64, _ int) instance { return newKV(kvSpec, seed) },
		calls: [3]string{"coherence.NewSystem + device.NewOverlay + kvstore.NewStore", "kvstore.Run",
			"kvstore result + System.CheckInvariants"},
	},
	{
		name: "cluster-spread", unit: "RPCs completed", workers: 2, spec: spreadSpec,
		build: func(_ int64, workers int) instance { return newCluster(spreadSpec, 0, workers) },
		calls: [3]string{"cluster.New", "Cluster.Run", "Cluster.Report + Switch.CheckConservation"},
	},
	{
		name: "cluster-chaos", unit: "RPCs completed + flow packets delivered", seeded: true,
		workers: 2, spec: chaosSpec,
		build: func(seed int64, workers int) instance { return newCluster(chaosSpec, seed, workers) },
		calls: [3]string{"cluster.New", "Cluster.Run",
			"Cluster.Report + Switch.CheckConservation + Cluster.CheckDelivery"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- loopback-64b ----

// loopbackRun is the loopback-64b configuration: the paper's headline
// Fig 11/12 point, CC-NIC on ICX with 8 queues, 64 B packets, closed loop.
type loopbackRun struct {
	Testbed ccnic.Config
	Options ccnic.LoopbackOptions
}

var loopbackSpec = loopbackRun{
	Testbed: ccnic.Config{Platform: "ICX", Interface: ccnic.CCNIC, Queues: 8, HostPrefetch: true},
	Options: ccnic.LoopbackOptions{PktSize: 64, Window: 128,
		Warmup: 50 * sim.Microsecond, Measure: 750 * sim.Microsecond},
}

type loopbackInst struct {
	spec loopbackRun
	tb   *ccnic.Testbed
	res  ccnic.LoopbackResult
}

func newLoopback(spec loopbackRun) *loopbackInst {
	return &loopbackInst{spec: spec, tb: ccnic.NewTestbed(spec.Testbed)}
}

func (l *loopbackInst) run() error {
	return catch(func() { l.res = l.tb.RunLoopback(l.spec.Options) })
}

func (l *loopbackInst) result() (outcome, error) {
	r := &l.res
	o := outcome{
		work: int64(math.Round(r.PPS * l.spec.Options.Measure.Seconds())),
		fingerprint: fmt.Sprintf("mpps %.6f p50 %v p99 %v p999 %v max %v n %d dropped %d\n%s",
			r.Mpps(), r.Latency.Median(), r.Latency.Percentile(0.99), r.Latency.Percentile(0.999),
			r.Latency.Max(), r.Latency.Count(), r.Dropped, coherenceFingerprint(l.tb.Sys)),
		counts: coherenceCounts(l.tb.Sys),
	}
	return o, l.tb.Sys.CheckInvariants()
}

func (l *loopbackInst) close() { l.tb.Kernel.Shutdown() }

// ---- kv-ads ----

// kvRun is the kv-ads configuration: the paper's KV store (§5.7) on the
// CC-NIC overlay to a CX6, loaded beyond saturation.
type kvRun struct {
	Platform       string
	Threads        int // server threads = NIC queues
	OverlayThreads int // forwarding threads on the NIC socket
	HostPrefetch   bool
	Keys           int
	Dist           string // object-size distribution
	ZipfS          float64
	GetFraction    float64
	RatePerQueue   float64 // offered requests/s per queue
	Warmup         sim.Time
	Measure        sim.Time
}

var kvSpec = kvRun{
	Platform: "ICX", Threads: 8, OverlayThreads: 16, HostPrefetch: true,
	Keys: 1_000_000, Dist: "ads", ZipfS: 0.75, GetFraction: 0.95,
	RatePerQueue: 10e6,
	Warmup:       50 * sim.Microsecond, Measure: 200 * sim.Microsecond,
}

type kvInst struct {
	spec kvRun
	cfg  kvstore.Config
	res  kvstore.Result
}

func newKV(spec kvRun, seed int64) *kvInst {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ByName(spec.Platform))
	sys.SetPrefetch(0, spec.HostPrefetch)
	hosts := make([]*coherence.Agent, spec.Threads)
	for i := range hosts {
		hosts[i] = sys.NewAgent(0, "app")
	}
	ovs := make([]*coherence.Agent, spec.OverlayThreads)
	for i := range ovs {
		ovs[i] = sys.NewAgent(1, "ov")
	}
	dist := traffic.Ads(seed)
	if spec.Dist != dist.Name() {
		panic("perfbench: kv-ads spec names an unknown size distribution")
	}
	return &kvInst{spec: spec, cfg: kvstore.Config{
		Sys:          sys,
		Dev:          device.NewOverlay(sys, device.CCNICConfig(), platform.CX6(), hosts, ovs),
		Hosts:        hosts,
		Store:        kvstore.NewStore(sys, 0, spec.Keys, dist),
		GetFraction:  spec.GetFraction,
		ZipfS:        spec.ZipfS,
		Seed:         seed,
		RatePerQueue: spec.RatePerQueue,
		Warmup:       spec.Warmup,
		Measure:      spec.Measure,
	}}
}

func (kv *kvInst) run() error {
	return catch(func() { kv.res = kvstore.Run(kv.cfg) })
}

func (kv *kvInst) result() (outcome, error) {
	o := outcome{
		work:        kv.res.Gets + kv.res.Sets,
		fingerprint: fmt.Sprintf("%+v\n%s", kv.res, coherenceFingerprint(kv.cfg.Sys)),
		counts:      coherenceCounts(kv.cfg.Sys),
	}
	return o, kv.cfg.Sys.CheckInvariants()
}

func (kv *kvInst) close() { kv.cfg.Sys.Kernel().Shutdown() }

func coherenceFingerprint(sys *coherence.System) string {
	return fmt.Sprintf("socket0 %+v\nsocket1 %+v\n", sys.Counters(0), sys.Counters(1))
}

func coherenceCounts(sys *coherence.System) counts {
	c0, c1 := sys.Counters(0), sys.Counters(1)
	st := sys.Link().Stats()
	return counts{
		events:        sys.Kernel().Events(),
		remoteReads:   c0.RemoteRead + c1.RemoteRead,
		remoteRFOs:    c0.RemoteRFO + c1.RemoteRFO,
		linkMsgs:      st.Messages[0] + st.Messages[1],
		linkWireBytes: st.WireBytes[0] + st.WireBytes[1],
	}
}

// ---- cluster-spread and cluster-chaos ----

// clusterRun is a cluster workload's configuration. Seeded fields (the
// fault plan's and the flows' seeds) are filled from the benchmark seed.
type clusterRun struct {
	Config cluster.Config
	Until  sim.Time
	// PortFlap is the per-packet portflap rate of the seeded fault plan
	// (0: unarmed).
	PortFlap float64
}

// spreadSpec is cluster-spread: the multi_shard trajectory scenario, 8
// hosts exchanging 4 KB RPCs all-to-all, unreliable, uncongested.
var spreadSpec = clusterRun{
	Config: cluster.Config{Hosts: 8, Workers: 2, Window: 32, ReqSize: 4096,
		Pattern: cluster.PatternSpread},
	Until: 10 * sim.Millisecond,
}

// chaosSpec is cluster-chaos: an 8-port incast of 512 B RPCs plus Ads
// tenant flows, on the redundant switch pair with the reliable transport,
// under a seeded portflap plan.
var chaosSpec = clusterRun{
	Config: cluster.Config{Hosts: 8, Workers: 2, Window: 8, ReqSize: 512,
		Pattern: cluster.PatternIncast, Reliable: true, Switches: 2,
		Flows: []cluster.FlowSpec{{
			Name: "ads", Srcs: []int{1, 2, 3, 4, 5, 6, 7}, Dst: 0, Dist: "ads",
			MeanGap: 800 * sim.Nanosecond, Tenants: 128, ZipfS: 0.75, TrackEvery: 8,
		}}},
	Until:    10 * sim.Millisecond,
	PortFlap: 0.002,
}

type clusterInst struct {
	spec clusterRun
	c    *cluster.Cluster
}

func newCluster(spec clusterRun, seed int64, workers int) *clusterInst {
	cfg := spec.Config
	cfg.Workers = workers
	cfg.Flows = append([]cluster.FlowSpec(nil), cfg.Flows...)
	for i := range cfg.Flows {
		cfg.Flows[i].Seed = seed
	}
	if spec.PortFlap > 0 {
		plan := &fault.Plan{Seed: seed}
		plan.Rate[fault.FabricPortDown] = spec.PortFlap
		cfg.Faults = plan
	}
	return &clusterInst{spec: spec, c: cluster.New(cfg)}
}

func (ci *clusterInst) run() error {
	var err error
	if perr := catch(func() { err = ci.c.Run(ci.spec.Until) }); perr != nil {
		return perr
	}
	return err
}

func (ci *clusterInst) result() (outcome, error) {
	rep := ci.c.Report()
	o := outcome{
		work:        rep.Done + rep.FlowDelivered,
		fingerprint: rep.String(),
		counts: counts{
			events:      ci.c.Events(),
			rpcsSent:    rep.Sent,
			rpcsDone:    rep.Done,
			retransmits: rep.Retransmits,
			exhausted:   rep.Exhausted,
			failovers:   rep.Failovers,
		},
	}
	var errs []error
	for _, sw := range ci.c.Switches {
		st := sw.Stats()
		o.counts.fabricPkts += st.Forwarded() + st.Drops()
		o.counts.fabricDrops += st.Drops()
		for _, p := range st.Ports {
			o.counts.queueHighWater = max(o.counts.queueHighWater, p.HighWater)
		}
		errs = append(errs, sw.CheckConservation())
	}
	if ci.spec.Config.Reliable {
		errs = append(errs, ci.c.CheckDelivery())
	}
	return o, errors.Join(errs...)
}

func (ci *clusterInst) close() {
	for _, s := range ci.c.Engine.Shards() {
		s.Kernel().Shutdown()
	}
}

// catch runs fn and turns a panic (the simulator's construction-time and
// watchdog failures) into an error.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}
