// Command ccnicsim runs a single configurable simulation: choose the
// platform, host-NIC interface, core count, workload, and load, and get
// throughput, latency percentiles, interconnect statistics, and (optionally)
// a packet-lifecycle breakdown. It is the exploratory companion to
// ccbench's fixed paper experiments.
//
// Examples:
//
//	ccnicsim -iface ccnic -queues 8 -pkt 64
//	ccnicsim -iface e810 -queues 4 -pkt 1536 -rate 2e6
//	ccnicsim -platform SPR -iface unopt -queues 16 -trace
//	ccnicsim -iface overlay -workload kv -dist geo -queues 4
//	ccnicsim -platform CXL -iface ccnic -queues 8 -workload forward
//	ccnicsim -workload cluster -hosts 8 -incast -bulk 2 -signal pcie
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ccnic"
	"ccnic/internal/cluster"
	"ccnic/internal/fabric"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// options is ccnicsim's flag surface. validate checks it and fills the
// resolved fields below the flags.
type options struct {
	platform, iface, workload, dist, protocol, faults, signal string

	queues, pkt, window, txBatch, rxBatch, overlayN int
	rate, measure                                   float64
	prefetch, trace                                 bool

	hosts, shards, bulk, switches int
	incast, fifo, reliable        bool

	plan      *ccnic.FaultPlan
	ifaceVal  ccnic.Interface
	signaling cluster.Signal
}

// register binds every flag to a field of o.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.platform, "platform", "ICX", "platform: ICX, SPR, or CXL")
	fs.StringVar(&o.iface, "iface", "ccnic", "interface: ccnic, unopt, e810, cx6, overlay, overlay-unopt")
	fs.IntVar(&o.queues, "queues", 4, "host threads / queue pairs")
	fs.IntVar(&o.pkt, "pkt", 64, "packet size in bytes")
	fs.Float64Var(&o.rate, "rate", 0, "offered packets/s per queue (0 = closed-loop max)")
	fs.IntVar(&o.window, "window", 128, "closed-loop in-flight window per queue")
	fs.IntVar(&o.txBatch, "txbatch", 32, "TX burst size")
	fs.IntVar(&o.rxBatch, "rxbatch", 32, "RX burst size")
	fs.StringVar(&o.workload, "workload", "loopback", "workload: loopback, forward, kv, rpc, cluster")
	fs.StringVar(&o.dist, "dist", "ads", "kv object distribution: ads or geo")
	fs.Float64Var(&o.measure, "measure", 150, "measurement window in microseconds")
	fs.BoolVar(&o.prefetch, "prefetch", true, "host hardware prefetching")
	fs.BoolVar(&o.trace, "trace", false, "sample packet lifecycles and print a stage breakdown (loopback only)")
	fs.IntVar(&o.overlayN, "overlay-threads", 0, "overlay forwarding threads (0 = one per queue)")
	fs.StringVar(&o.protocol, "protocol", "upi", "coherence protocol backend: upi or cxl")
	fs.StringVar(&o.faults, "faults", "", "arm a deterministic fault `plan`, e.g. \"seed=7,dbdrop=0.01\" or \"all=0.005\" (see internal/fault)")
	fs.IntVar(&o.shards, "shards", 0, "cluster workload: partition the hosts into `N` shards on the parallel engine (0 = one per host; results are identical for every value)")
	fs.IntVar(&o.hosts, "hosts", 0, "cluster workload: member node count (default 4)")
	fs.BoolVar(&o.incast, "incast", false, "cluster workload: converge all RPC clients on host 0 (default spread)")
	fs.BoolVar(&o.fifo, "fifo", false, "cluster workload: FIFO fabric scheduling instead of DRR fair queuing")
	fs.IntVar(&o.bulk, "bulk", 0, "cluster workload: saturating 8KiB bulk tenants aimed at host 0 (`N` generators)")
	fs.StringVar(&o.signal, "signal", "ccnic", "cluster workload: host-NIC signaling model, ccnic or pcie")
	fs.BoolVar(&o.reliable, "reliable", false, "cluster workload: arm the end-to-end reliable transport (timeouts, retransmission, degraded mode; prints recovery counters)")
	fs.IntVar(&o.switches, "switches", 0, "cluster workload: fabric switches, 1 or 2 (redundant pair with health-probe failover; default 1, or 2 with -reliable)")
}

// interfaces maps the -iface names to the modeled host-NIC interfaces.
var interfaces = map[string]ccnic.Interface{
	"ccnic":         ccnic.CCNIC,
	"unopt":         ccnic.UnoptUPI,
	"e810":          ccnic.E810,
	"cx6":           ccnic.CX6,
	"overlay":       ccnic.OverlayCCNIC,
	"overlay-unopt": ccnic.OverlayUnopt,
}

// validate rejects every flag combination the models would panic or hang
// on, before anything runs, and resolves the parsed fields.
func (o *options) validate() error {
	switch o.workload {
	case "loopback", "forward", "kv", "rpc", "cluster":
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	plat := platform.ByName(o.platform)
	if plat == nil {
		return fmt.Errorf("unknown platform %q (ICX, SPR or CXL)", o.platform)
	}
	var ok bool
	if o.ifaceVal, ok = interfaces[strings.ToLower(o.iface)]; !ok {
		return fmt.Errorf("unknown interface %q", o.iface)
	}
	if _, err := ccnic.ParseProtocol(o.protocol); err != nil {
		return err
	}
	var err error
	if o.plan, err = ccnic.ParseFaultPlan(o.faults); err != nil {
		return err
	}
	switch o.dist {
	case "ads", "geo":
	default:
		return fmt.Errorf("unknown -dist %q (ads or geo)", o.dist)
	}
	switch strings.ToLower(o.signal) {
	case "", "ccnic":
		o.signaling = cluster.SignalCCNIC
	case "pcie":
		o.signaling = cluster.SignalPCIe
	default:
		return fmt.Errorf("unknown signaling model %q (ccnic or pcie)", o.signal)
	}
	switch {
	case !(o.measure > 0):
		return fmt.Errorf("-measure must be a positive number of microseconds")
	case o.rate < 0:
		return fmt.Errorf("-rate must not be negative")
	case o.queues < 1 || o.queues > plat.CoresPerSocket:
		return fmt.Errorf("-queues must be 1 to %d (%s's cores per socket)", plat.CoresPerSocket, plat.Name)
	case o.pkt < 1 || o.window < 1 || o.txBatch < 1 || o.rxBatch < 1:
		return fmt.Errorf("-pkt, -window, -txbatch and -rxbatch must be at least 1")
	case o.overlayN < 0 || o.shards < 0 || o.bulk < 0:
		return fmt.Errorf("-overlay-threads, -shards and -bulk must not be negative")
	case o.hosts < 0 || o.hosts == 1:
		return fmt.Errorf("-hosts must be at least 2 (0 for the default 4)")
	case o.switches < 0 || o.switches > 2:
		return fmt.Errorf("-switches models 1 or 2 fabric switches")
	case o.switches == 2 && !o.reliable:
		return fmt.Errorf("-switches 2 needs -reliable (the transport owns routing across the pair)")
	}
	if o.switches == 0 && o.reliable {
		o.switches = 2 // give the transport's failover somewhere to go
	}
	return nil
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ccnicsim: %v\n", err)
		os.Exit(1)
	}

	// The cluster workload is a multi-host topology on the parallel shard
	// engine, not a single testbed: handle it before testbed assembly.
	if o.workload == "cluster" {
		runCluster(&o)
		return
	}

	tb := ccnic.NewTestbed(ccnic.Config{
		Platform:       o.platform,
		Interface:      o.ifaceVal,
		Protocol:       o.protocol,
		Queues:         o.queues,
		HostPrefetch:   o.prefetch,
		OverlayThreads: o.overlayN,
		Faults:         o.plan,
	})
	meas := sim.Time(o.measure * float64(sim.Microsecond))
	warm := meas / 3

	fmt.Printf("platform %s, interface %v over %s, %d queues, %dB packets\n",
		tb.Plat.Name, o.ifaceVal, tb.Sys.Link().Label(), o.queues, o.pkt)
	if o.plan != nil {
		fmt.Printf("fault plan armed: %s\n", o.plan)
	}
	fmt.Println()

	switch o.workload {
	case "loopback":
		var tr *ccnic.Tracer
		if o.trace {
			tr = ccnic.NewTracer(4, 8192)
		}
		res := tb.RunLoopbackTraced(ccnic.LoopbackOptions{
			PktSize: o.pkt, Rate: o.rate, Window: o.window,
			TxBatch: o.txBatch, RxBatch: o.rxBatch,
			Warmup: warm, Measure: meas,
		}, tr)
		fmt.Printf("throughput: %8.2f Mpps (%.1f Gbps payload)\n", res.Mpps(), res.Gbps)
		fmt.Printf("latency:    median %v   p99 %v   min %v   max %v\n",
			res.Latency.Median(), res.Latency.Percentile(0.99),
			res.Latency.Min(), res.Latency.Max())
		if tr != nil {
			fmt.Println()
			fmt.Print(tr.Report())
		}
	case "forward":
		r := o.rate
		if r == 0 {
			r = 5e6
		}
		res := tb.RunForward(ccnic.LoopbackOptions{
			PktSize: o.pkt, Warmup: warm, Measure: meas,
		}, r)
		fmt.Printf("forwarded: %8.2f Mpps (%.1f Gbps)\n", res.Mpps(), res.Gbps)
	case "kv":
		r := o.rate
		if r == 0 {
			r = 10e6
		}
		res := tb.RunKVStore(ccnic.KVOptions{
			Dist: o.dist, RatePerQueue: r, Seed: 7,
			Warmup: warm, Measure: meas,
		})
		fmt.Printf("kv store:  %8.2f Mops (%d gets, %d sets processed)\n",
			res.Mops(), res.Gets, res.Sets)
	case "rpc":
		r := o.rate
		if r == 0 {
			r = 30e6
		}
		res := tb.RunRPC(ccnic.RPCOptions{
			RPCSize: o.pkt, RatePerQueue: r,
			Warmup: warm, Measure: meas,
		})
		fmt.Printf("echo rpc:  %8.2f Mops\n", res.Mops())
	}

	st := tb.Sys.Link().Stats()
	now := tb.Kernel.Now()
	fmt.Printf("\n%s interconnect: %.1f/%.1f GB wire to-NIC/to-host, utilization %.0f%%/%.0f%%\n",
		tb.Sys.Link().Label(),
		float64(st.WireBytes[0])/1e9, float64(st.WireBytes[1])/1e9,
		tb.Sys.Link().Utilization(0, now)*100, tb.Sys.Link().Utilization(1, now)*100)
	c0, c1 := tb.Sys.Counters(0), tb.Sys.Counters(1)
	fmt.Printf("remote accesses: host %d rd / %d rfo, NIC-side %d rd / %d rfo\n",
		c0.RemoteRead, c0.RemoteRFO, c1.RemoteRead, c1.RemoteRFO)
	if tb.Sys.Protocol() == ccnic.ProtoCXL {
		fmt.Printf("cxl: %d bias flips host-side, %d NIC-side\n", c0.BiasFlips, c1.BiasFlips)
	}
	if flt := tb.Sys.Faults(); flt != nil {
		fmt.Printf("\n%s", flt.Stats().Format())
	}
}

// runCluster drives the multi-host cluster workload on the parallel shard
// engine and prints its report.
func runCluster(o *options) {
	cfg := ccnic.ClusterConfig{
		Hosts:      o.hosts,
		Shards:     o.shards,
		Window:     o.window,
		ReqSize:    o.pkt,
		Faults:     o.plan,
		FabricFIFO: o.fifo,
		Reliable:   o.reliable,
		Switches:   o.switches,
		Signaling:  o.signaling,
	}
	if o.incast || o.bulk > 0 {
		cfg.Pattern = cluster.PatternIncast
	}
	effHosts := cfg.Hosts
	if effHosts == 0 {
		effHosts = 4 // cluster.New's default
	}
	for i := 0; i < o.bulk; i++ {
		src := 1 + i%(effHosts-1)
		cfg.Flows = append(cfg.Flows, cluster.FlowSpec{
			Name: fmt.Sprintf("bulk%d", i), Srcs: []int{src}, Dst: 0,
			Class: fabric.ClassBulk, Bytes: 8192,
			MeanGap: 300 * sim.Nanosecond, Tenants: 8,
			TrackEvery: 32, Seed: int64(23 + i),
		})
	}
	c := ccnic.NewCluster(cfg)
	fmt.Printf("cluster workload on the parallel shard engine (lookahead %v)\n", c.Lookahead())
	if o.plan != nil {
		fmt.Printf("fault plan armed: %s\n", o.plan)
	}
	fmt.Println()
	if err := c.Run(sim.Time(o.measure * float64(sim.Microsecond))); err != nil {
		fmt.Fprintf(os.Stderr, "ccnicsim: cluster: %v\n", err)
		os.Exit(1)
	}
	// Report.String surfaces the recovery counters (retransmits, degraded
	// entries, failovers, probes) whenever the armed transport exercised
	// them.
	fmt.Print(c.Report())
	if o.reliable {
		if err := c.CheckDelivery(); err != nil {
			fmt.Fprintf(os.Stderr, "ccnicsim: cluster: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("delivery ledger: no silent loss (sent = done + exhausted + pending on every node)")
	}
	st := c.FaultStats()
	if st.Total() > 0 {
		fmt.Printf("\n%s", st.Format())
	}
}
