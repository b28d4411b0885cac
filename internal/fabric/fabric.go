// Package fabric models a switched datacenter fabric as a first-class
// simulation component riding on the parallel shard engine: a Switch is its
// own shard (kernel), hosts attach to numbered ports over shard links whose
// minimum latency — the hop propagation — is the conservative lookahead, and
// every packet crosses ingress queuing, routing, egress queuing, fair
// scheduling, and wire serialization inside the switch model.
//
// # Virtual addressing
//
// Packets name hosts, not ports: the switch resolves Packet.Dst through a
// routing table (host id -> egress port) populated by Attach and extensible
// with Route. Because forwarding is table-driven, a port does not have to
// lead to a host — mapping several host ids onto one port models a trunk to
// a neighboring switch, so multi-switch topologies compose without changing
// the send surface.
//
// # Queuing and fairness
//
// Each egress port keeps per-(source, class) virtual queues with bounded
// per-queue occupancy (tail-drop) and serves them with deficit round robin,
// so a saturating bulk flow cannot starve small RPCs sharing the port: each
// active queue earns a byte quantum per round and bulk packets wait out
// their deficit while small-class queues drain. FIFO mode (Config.FIFO)
// disables DRR and serves strictly in arrival order — the ablation baseline
// for the fairness experiments.
//
// # Partition invariance
//
// Like everything on the shard engine, switch results are bit-identical for
// every host partition and worker count. The engine only guarantees a
// deterministic *merge* order for cross-shard messages; same-instant
// deliveries still execute in a partition-dependent order, so the switch is
// built so that no decision depends on that order:
//
//   - scheduling decisions use a strict-timestamp eligibility rule: a packet
//     queued at instant t is only visible to decisions at instants > t.
//     Since the kernel executes all earlier-instant events before any event
//     at t, the eligible set at a decision instant is a pure function of
//     arrival timestamps — never of intra-instant execution order;
//   - the arbiter's decision instants are themselves timestamp-derived: an
//     idle egress woken at t defers its decision by the platform's
//     arbitration latency (Config.SchedLat > 0), so a decision never shares
//     an instant with the arrival that triggered it;
//   - queues are per (source, class): a queue's FIFO order is the source's
//     own send order (per-link sequence numbers preserve it), and bounded
//     occupancy is enforced per queue, so a tail-drop decision depends only
//     on that source's in-flight history, not on how two sources' same-
//     instant arrivals happened to interleave.
package fabric

import (
	"fmt"
	"strings"

	"ccnic/internal/fault"
	"ccnic/internal/sim"
	"ccnic/internal/sim/shard"
)

// Class is a packet's traffic class, the fairness unit alongside the source:
// egress queues are keyed by (source host, class).
type Class uint8

const (
	// ClassRPC marks small latency-sensitive transfers (requests,
	// responses, control traffic).
	ClassRPC Class = iota
	// ClassBulk marks large throughput-oriented transfers.
	ClassBulk

	// NumClasses sizes per-class state.
	NumClasses
)

// String names the class for stats and reports.
func (c Class) String() string {
	switch c {
	case ClassRPC:
		return "rpc"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// ClassFor derives the default class of a transfer from its wire size:
// anything beyond classBulkMin bytes is bulk.
func ClassFor(bytes int) Class {
	if bytes >= classBulkMin {
		return ClassBulk
	}
	return ClassRPC
}

// classBulkMin is the smallest wire size classified as bulk by ClassFor:
// above common MTU-and-below RPC sizes.
const classBulkMin = 2048

// Packet is one transfer crossing the fabric. Src and Dst are virtual host
// addresses; the switch resolves Dst to an egress port through its routing
// table. Bytes is the wire size charged for serialization and DRR deficit.
type Packet struct {
	Src, Dst int
	Class    Class
	Bytes    int
	Payload  any
}

// DeliverFunc handles a packet arriving at its destination host. It runs as
// a simulation process on the destination host's kernel.
type DeliverFunc func(p *sim.Proc, pkt Packet)

// Config tunes a Switch. Zero values select the documented defaults.
type Config struct {
	// Ports is the number of attachable ports (>= 2).
	Ports int
	// BW is the per-port wire bandwidth in bytes per nanosecond.
	BW float64
	// HopLat is the one-way host<->switch propagation latency; it is the
	// lookahead of every attach link and must be strictly positive.
	HopLat sim.Time
	// RouteLat is the ingress-to-egress forwarding latency.
	RouteLat sim.Time
	// SchedLat is the egress arbitration granularity (> 0; see the
	// package comment on partition invariance).
	SchedLat sim.Time
	// IngressCap bounds each ingress port's routing pipeline occupancy,
	// in packets; arrivals beyond it are dropped (default 256).
	IngressCap int
	// FlowCap bounds each egress (source, class) virtual queue, in
	// packets; arrivals beyond it are tail-dropped (default 128).
	FlowCap int
	// Quantum is the DRR byte quantum added to an active queue per
	// scheduling round (default 4096: one bulk MTU-ish transfer).
	Quantum int
	// FIFO disables fair queuing: egress serves strictly in arrival
	// order (ties broken by source then class then send order).
	FIFO bool
	// LinkCap is the shard-link FIFO capacity for each attach direction
	// (default 1 << 16 messages; the real bounded buffers are the
	// switch's own queues, so attach links are sized to never bind).
	LinkCap int
	// Faults optionally arms the switch-side fault classes (portflap,
	// corrupt, blackhole, brownout). Draws are stateless hashes of the
	// packet's (source, per-source sequence) identity, so an armed switch
	// stays partition-invariant and an unarmed one is byte-identical to a
	// fault-free build (see internal/fault).
	Faults *fault.Injector
	// Outages scripts deterministic administrative port outages on top of
	// (or instead of) drawn flaps — the chaos experiments use them to place
	// a fault at an exact instant on a known port.
	Outages []Outage
	// BrownoutFactor is the serialization derate applied while an egress
	// port is browned out (default 4: the port runs at quarter rate).
	BrownoutFactor int
}

// Outage is one scripted administrative outage: port admits nothing (in
// either direction) for From <= now < To.
type Outage struct {
	Port     int
	From, To sim.Time
}

// Probe observes switch queuing for online validation (internal/check).
// PortEvent fires after every queuing event on a port — an egress
// admission, a finished serialization, or a drop (the ingress port for
// arrival and routing-stage drops, the egress port otherwise). Calls go
// through a nil guard; a run without a checker pays one branch per event.
type Probe interface {
	PortEvent(port int)
}

// AutoAttach, when non-nil, is invoked on every Switch created by New.
// check.EnableAuto sets it so ccbench -check validates fabric invariants
// without the model importing the checker.
var AutoAttach func(*Switch)

// entry is one queued packet with its admission timestamp (the eligibility
// key: visible only to decisions at strictly later instants).
type entry struct {
	at  sim.Time
	pkt Packet
}

// window is a fault-effect interval with the same strictness discipline as
// queue eligibility: a window opened by a draw at instant t affects only
// decisions at instants strictly after t, and same-instant extensions
// commute (the start is kept, the end max-merges). That makes the window
// state at any instant a pure function of the set of (draw instant, span)
// pairs — never of the partition-dependent order in which same-instant
// arrivals executed their draws.
type window struct {
	from, until sim.Time
}

// extend opens (or prolongs) the window from a draw at instant now.
func (w *window) extend(now sim.Time, span sim.Time) {
	if now >= w.until {
		w.from = now
	}
	if until := now + span; until > w.until {
		w.until = until
	}
}

// active reports whether the window affects a decision at instant now.
func (w *window) active(now sim.Time) bool {
	return w.from < now && now < w.until
}

// vq is one egress (source, class) virtual queue plus its DRR state.
type vq struct {
	q       []entry
	head    int
	deficit int
	serving bool // cursor is mid-turn on this queue (no fresh quantum)
}

func (f *vq) len() int { return len(f.q) - f.head }

func (f *vq) pop() entry {
	e := f.q[f.head]
	f.q[f.head] = entry{}
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return e
}

// egress is one output port: its virtual queues, scheduler process state,
// and counters.
type egress struct {
	port   int
	flows  []vq // indexed src*NumClasses + class
	cursor int  // DRR round-robin position, persistent across decisions
	queued int  // packets admitted and not yet picked
	serQ   int  // packets picked and still serializing onto the wire (0 or 1)
	wake   *sim.Event

	// brown is the port's brownout window: while active, serialization
	// runs at cfg.BrownoutFactor times the normal time.
	brown window

	// counters (PortStats)
	admitted  int64
	forwarded int64
	sentBytes int64
	drops     int64
	downDrops int64 // refused at egress admission: destination port down
	classPkts [NumClasses]int64
	highWater int
}

// ingress is one input port's routing-pipeline accounting.
type ingress struct {
	inFlight int
	admitted int64
	drops    int64

	// fault-domain drops, each accounted where the packet died.
	downDrops      int64 // arrival refused: the packet's own port is down
	blackholeDrops int64 // discarded by the routing stage (blackhole window)
	corruptDrops   int64 // discarded at the frame check (in-switch corruption)
}

// Switch is a modeled output-queued switch on its own shard.
type Switch struct {
	name string
	cfg  Config
	shd  *shard.Shard
	k    *sim.Kernel

	route   []int // host id -> egress port (-1 unrouted)
	ports   []*egress
	ins     []*ingress
	deliver []DeliverFunc // per attached host id

	// Fault-domain state (all touched only on the switch shard).
	flt       *fault.Injector
	srcSeq    []uint64 // per source host: arrival sequence (the draw identity)
	portDown  []window // per port: drawn flap outage
	blackhole []window // per destination host: routing blackhole window

	// links, keyed by the attached host's shard id.
	up   map[int]*shard.Link // host shard -> switch
	down map[int]*shard.Link // switch -> host shard

	hostShard map[int]int // host id -> shard id (for down-link resolution)

	probe Probe
}

// New creates a switch as a fresh shard on the engine. The configuration is
// validated at construction time, matching the repo's style.
func New(e *shard.Engine, name string, cfg Config) *Switch {
	if cfg.Ports < 2 {
		panic("fabric: a switch needs at least 2 ports")
	}
	if cfg.BW <= 0 {
		cfg.BW = 12.5
	}
	if cfg.HopLat <= 0 {
		panic("fabric: HopLat must be strictly positive (it is the attach lookahead)")
	}
	if cfg.RouteLat < 0 {
		cfg.RouteLat = 0
	}
	if cfg.SchedLat <= 0 {
		cfg.SchedLat = 25 * sim.Nanosecond
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 256
	}
	if cfg.FlowCap <= 0 {
		cfg.FlowCap = 128
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4096
	}
	if cfg.LinkCap <= 0 {
		cfg.LinkCap = 1 << 16
	}
	if cfg.BrownoutFactor <= 1 {
		cfg.BrownoutFactor = 4
	}
	for _, o := range cfg.Outages {
		if o.Port < 0 || o.Port >= cfg.Ports || o.From < 0 || o.To <= o.From {
			panic(fmt.Sprintf("fabric: invalid scripted outage %+v", o))
		}
	}
	sw := &Switch{
		name:      name,
		cfg:       cfg,
		flt:       cfg.Faults,
		portDown:  make([]window, cfg.Ports),
		up:        make(map[int]*shard.Link),
		down:      make(map[int]*shard.Link),
		hostShard: make(map[int]int),
	}
	sw.shd = e.NewShard(name, sim.New())
	sw.k = sw.shd.Kernel()
	if AutoAttach != nil {
		AutoAttach(sw)
	}
	return sw
}

// Kernel returns the switch's kernel (its shard affinity, see shard.Affine).
func (sw *Switch) Kernel() *sim.Kernel { return sw.k }

// Shard returns the switch's shard.
func (sw *Switch) Shard() *shard.Shard { return sw.shd }

// Config returns the switch's (defaulted) configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// SetProbe installs (or removes, with nil) the validation probe.
func (sw *Switch) SetProbe(p Probe) { sw.probe = p }

// portEvent reports a queuing event on port to the probe, if one is attached.
//
//ccnic:noalloc
func (sw *Switch) portEvent(port int) {
	if sw.probe != nil {
		sw.probe.PortEvent(port)
	}
}

// Attach connects host (a virtual address) living on shard hs to the next
// free port, returning the port number. deliver runs on hs's kernel for
// every packet forwarded to host. e must be the engine the switch was
// created on. Hosts sharing a shard (coarse partitions) share the underlying
// shard links; the switch's queues and routing stay per host.
func (sw *Switch) Attach(e *shard.Engine, host int, hs *shard.Shard, deliver DeliverFunc) int {
	if len(sw.ports) >= sw.cfg.Ports {
		panic(fmt.Sprintf("fabric: switch %s out of ports (%d)", sw.name, sw.cfg.Ports))
	}
	port := len(sw.ports)
	eg := &egress{
		port:  port,
		flows: make([]vq, sw.cfg.Ports*int(NumClasses)),
		wake:  sw.k.NewEvent(fmt.Sprintf("%s.p%d", sw.name, port)),
	}
	sw.ports = append(sw.ports, eg)
	sw.ins = append(sw.ins, &ingress{})
	sw.Route(host, port)
	for len(sw.deliver) <= host {
		sw.deliver = append(sw.deliver, nil)
	}
	sw.deliver[host] = deliver
	sw.hostShard[host] = hs.ID()

	if _, ok := sw.up[hs.ID()]; !ok {
		sw.up[hs.ID()] = e.Connect(hs, sw.shd, sw.cfg.HopLat, sw.cfg.LinkCap,
			func(p *sim.Proc, payload any) { sw.arrive(p, payload.(Packet)) })
		sw.down[hs.ID()] = e.Connect(sw.shd, hs, sw.cfg.HopLat, sw.cfg.LinkCap,
			func(p *sim.Proc, payload any) {
				pkt := payload.(Packet)
				sw.deliver[pkt.Dst](p, pkt)
			})
	}

	sw.k.Spawn(fmt.Sprintf("%s.egress%d", sw.name, port), func(p *sim.Proc) {
		sw.egressLoop(p, eg)
	})
	return port
}

// Route maps a virtual host address onto an egress port, overriding (or
// extending, for trunk ports) the mapping Attach installed.
func (sw *Switch) Route(host, port int) {
	if port < 0 || port >= sw.cfg.Ports {
		panic(fmt.Sprintf("fabric: route %d -> invalid port %d", host, port))
	}
	for len(sw.route) <= host {
		sw.route = append(sw.route, -1)
	}
	sw.route[host] = port
}

// HopLatency returns the attach-link lookahead (one hop, one way).
func (sw *Switch) HopLatency() sim.Time { return sw.cfg.HopLat }

// SerTime returns the wire serialization time of a packet of the given size
// at the port bandwidth.
func (sw *Switch) SerTime(bytes int) sim.Time {
	return sim.Time(float64(bytes) / sw.cfg.BW * float64(sim.Nanosecond))
}

// Ingress sends a packet into the fabric. It must be called from a process
// on the source host's shard (the declared boundary); extra is any
// sender-side delay (NIC egress serialization, drawn spikes) added on top of
// the hop propagation. The packet arrives at the switch's ingress port
// extra + HopLat after now.
func (sw *Switch) Ingress(p *sim.Proc, extra sim.Time, pkt Packet) {
	if extra < 0 {
		extra = 0
	}
	l, ok := sw.up[sw.hostShard[pkt.Src]]
	if !ok {
		panic(fmt.Sprintf("fabric: ingress from unattached host %d", pkt.Src))
	}
	l.Send(p, sw.cfg.HopLat+extra, pkt)
}

// arrive runs on the switch shard for each packet delivered by an up link:
// port-down admission, ingress admission, the routing pipeline (blackhole
// and frame checks), then egress admission. Every fault draw is keyed by
// the packet's (source, per-source sequence) identity, taken here in the
// source's own send order — see the fault-domain notes in internal/fault.
func (sw *Switch) arrive(p *sim.Proc, pkt Packet) {
	inPort := sw.portOf(pkt.Src)
	in := sw.ins[inPort]
	var seq uint64
	if sw.flt != nil {
		seq = sw.nextSeq(pkt.Src)
		if span := sw.flt.PortDown(pkt.Src, seq); span > 0 {
			sw.portDown[inPort].extend(p.Now(), span)
		}
	}
	if sw.isDown(inPort, p.Now()) {
		in.downDrops++
		sw.portEvent(inPort)
		return
	}
	if in.inFlight >= sw.cfg.IngressCap {
		in.drops++
		sw.portEvent(inPort)
		return
	}
	in.inFlight++
	in.admitted++
	p.Sleep(sw.cfg.RouteLat)
	in.inFlight--

	if sw.flt != nil {
		// Routing stage: a drawn blackhole window swallows everything
		// routed toward this destination; an in-switch corruption fails
		// the frame check on this packet alone.
		if span := sw.flt.Blackhole(pkt.Src, seq); span > 0 {
			sw.extendBlackhole(pkt.Dst, p.Now(), span)
		}
		if sw.blackholed(pkt.Dst, p.Now()) {
			in.blackholeDrops++
			sw.portEvent(inPort)
			return
		}
		if sw.flt.FabricCorrupt(pkt.Src, seq) {
			in.corruptDrops++
			sw.portEvent(inPort)
			return
		}
	}

	outPort := sw.portOf(pkt.Dst)
	eg := sw.ports[outPort]
	if sw.isDown(outPort, p.Now()) {
		// Egress admission toward a downed port is refused; packets
		// already queued on it keep draining (the flap gates admission,
		// not the store-and-forward pipeline).
		eg.downDrops++
		sw.portEvent(outPort)
		return
	}
	if sw.flt != nil {
		if span := sw.flt.Brownout(pkt.Src, seq); span > 0 {
			eg.brown.extend(p.Now(), span)
		}
	}
	f := &eg.flows[sw.flowIdx(pkt)]
	if f.len() >= sw.cfg.FlowCap {
		eg.drops++
		sw.portEvent(outPort)
		return
	}
	f.q = append(f.q, entry{at: p.Now(), pkt: pkt})
	eg.queued++
	eg.admitted++
	if eg.queued > eg.highWater {
		eg.highWater = eg.queued
	}
	sw.portEvent(outPort)
	eg.wake.Signal()
}

// nextSeq returns the per-source arrival sequence number, the stable draw
// identity: a source's packets reach the switch in its own send order, so
// this counter is invariant under any host partition.
func (sw *Switch) nextSeq(src int) uint64 {
	for len(sw.srcSeq) <= src {
		sw.srcSeq = append(sw.srcSeq, 0)
	}
	sw.srcSeq[src]++
	return sw.srcSeq[src]
}

// isDown reports whether a port refuses admission at instant now, from a
// drawn flap window or a scripted outage.
func (sw *Switch) isDown(port int, now sim.Time) bool {
	if sw.portDown[port].active(now) {
		return true
	}
	for _, o := range sw.cfg.Outages {
		if o.Port == port && o.From <= now && now < o.To {
			return true
		}
	}
	return false
}

// extendBlackhole opens or prolongs the blackhole window of a destination.
func (sw *Switch) extendBlackhole(dst int, now, span sim.Time) {
	for len(sw.blackhole) <= dst {
		sw.blackhole = append(sw.blackhole, window{})
	}
	sw.blackhole[dst].extend(now, span)
}

// blackholed reports whether dst is inside an active blackhole window.
func (sw *Switch) blackholed(dst int, now sim.Time) bool {
	return dst < len(sw.blackhole) && sw.blackhole[dst].active(now)
}

// Faults returns the switch's injector (nil when unarmed), for stats
// aggregation.
func (sw *Switch) Faults() *fault.Injector { return sw.flt }

// portOf resolves a virtual address, panicking on unrouted destinations (a
// topology bug, not a runtime condition).
func (sw *Switch) portOf(host int) int {
	if host < 0 || host >= len(sw.route) || sw.route[host] < 0 {
		panic(fmt.Sprintf("fabric: no route for host %d", host))
	}
	return sw.route[host]
}

// flowIdx keys the egress virtual queue of a packet: (ingress port, class).
// Keying by port rather than raw source address keeps the queue array dense
// and makes trunked sources share the trunk's queue, as a real switch would.
func (sw *Switch) flowIdx(pkt Packet) int {
	return sw.portOf(pkt.Src)*int(NumClasses) + int(pkt.Class)
}

// egressLoop is one port's scheduler: wait for work, defer decisions one
// arbitration interval past the triggering arrival (strict-timestamp
// eligibility), pick by DRR or FIFO, serialize, and hand the packet to the
// destination's down link.
func (sw *Switch) egressLoop(p *sim.Proc, eg *egress) {
	for {
		if eg.queued == 0 {
			p.Wait(eg.wake)
			continue
		}
		f, ok := sw.pick(eg, p.Now())
		if !ok {
			// Everything queued arrived at this exact instant and is not
			// yet eligible: decide one arbitration interval later.
			p.Sleep(sw.cfg.SchedLat)
			continue
		}
		fl := &eg.flows[f]
		e := fl.pop()
		if fl.len() == 0 { // classic DRR: an emptied queue forfeits its deficit
			fl.deficit = 0
			fl.serving = false
		}
		eg.queued--
		eg.serQ++
		ser := sw.SerTime(e.pkt.Bytes)
		if eg.brown.active(p.Now()) {
			// Browned-out transceiver: the wire runs derated. The window
			// test uses the service-start instant, itself strictly later
			// than the draw that opened the window.
			ser *= sim.Time(sw.cfg.BrownoutFactor)
		}
		p.Sleep(ser)
		eg.serQ--
		eg.forwarded++
		eg.sentBytes += int64(e.pkt.Bytes)
		eg.classPkts[e.pkt.Class]++
		sw.portEvent(eg.port)
		sw.down[sw.hostShard[e.pkt.Dst]].Send(p, sw.cfg.HopLat, e.pkt)
	}
}

// pick selects the next virtual queue to serve at instant now, or reports
// that nothing is eligible yet. Only packets with admission timestamps
// strictly before now participate (see the package comment).
func (sw *Switch) pick(eg *egress, now sim.Time) (int, bool) {
	if sw.cfg.FIFO {
		return sw.pickFIFO(eg, now)
	}
	return sw.pickDRR(eg, now)
}

// pickFIFO serves in admission order: the eligible head with the smallest
// timestamp, ties broken by flow index (source port, then class). The
// tie-break deliberately avoids any notion of same-instant admission order —
// that order is partition-dependent when hosts share shards — while within a
// flow the queue order is the source's own send order, which is invariant.
func (sw *Switch) pickFIFO(eg *egress, now sim.Time) (int, bool) {
	best, ok := -1, false
	var bestAt sim.Time
	for i := range eg.flows {
		f := &eg.flows[i]
		if f.len() == 0 {
			continue
		}
		h := &f.q[f.head]
		if h.at >= now {
			continue
		}
		if !ok || h.at < bestAt {
			best, ok, bestAt = i, true, h.at
		}
	}
	return best, ok
}

// pickDRR is deficit round robin over the eligible virtual queues, visited
// in fixed index order from a persistent cursor. A queue entering service
// earns one quantum; it keeps the cursor while its deficit covers the head
// packet, and a queue that empties forfeits its residual deficit (classic
// DRR, so the deficit invariant eg.flows[i].deficit <= Quantum + maxBytes
// holds — internal/check enforces it).
func (sw *Switch) pickDRR(eg *egress, now sim.Time) (int, bool) {
	n := len(eg.flows)
	for scanned := 0; scanned <= n; scanned++ {
		f := &eg.flows[eg.cursor]
		if f.len() == 0 {
			if f.serving || f.deficit != 0 {
				f.serving = false
				f.deficit = 0
			}
			eg.cursor = (eg.cursor + 1) % n
			continue
		}
		h := &f.q[f.head]
		if h.at >= now {
			// Not yet eligible: skip without ending the queue's turn or
			// charging quantum — the decision replays after SchedLat, and
			// the serving flag (pure function of timestamps) survives.
			eg.cursor = (eg.cursor + 1) % n
			continue
		}
		if !f.serving {
			f.deficit += sw.cfg.Quantum
			f.serving = true
		}
		if f.deficit >= h.pkt.Bytes {
			f.deficit -= h.pkt.Bytes
			return eg.cursor, true
		}
		// Deficit exhausted: turn ends, deficit carries to the next round.
		f.serving = false
		eg.cursor = (eg.cursor + 1) % n
	}
	return -1, false
}

// PortStats is one egress port's counters plus its ingress side's.
type PortStats struct {
	Port            int
	Admitted        int64 // packets admitted to egress queues
	Forwarded       int64 // packets serialized onto the wire
	Bytes           int64 // wire bytes sent
	EgressDrops     int64 // tail drops at the (source, class) queues
	IngressAdmitted int64
	IngressDrops    int64
	ClassPkts       [NumClasses]int64
	HighWater       int // peak queued packets
	Queued          int // packets still queued (nonzero mid-run)

	// Fault-domain drops (zero on an unarmed switch).
	PortDownDrops  int64 // refused at a downed port (arrival + egress sides)
	BlackholeDrops int64 // swallowed by a routing blackhole window
	CorruptDrops   int64 // discarded at the frame check
}

// Stats aggregates the switch's counters.
type Stats struct {
	Ports []PortStats
}

// Forwarded sums forwarded packets across ports.
func (s Stats) Forwarded() int64 {
	var t int64
	for _, p := range s.Ports {
		t += p.Forwarded
	}
	return t
}

// Drops sums ingress and egress drops across ports (fault drops included).
func (s Stats) Drops() int64 {
	var t int64
	for _, p := range s.Ports {
		t += p.EgressDrops + p.IngressDrops + p.PortDownDrops + p.BlackholeDrops + p.CorruptDrops
	}
	return t
}

// FaultDrops sums the fault-domain drops across ports.
func (s Stats) FaultDrops() int64 {
	var t int64
	for _, p := range s.Ports {
		t += p.PortDownDrops + p.BlackholeDrops + p.CorruptDrops
	}
	return t
}

// Bytes sums wire bytes across ports.
func (s Stats) Bytes() int64 {
	var t int64
	for _, p := range s.Ports {
		t += p.Bytes
	}
	return t
}

// ClassPkts sums forwarded packets of one class across ports.
func (s Stats) ClassPkts(c Class) int64 {
	var t int64
	for _, p := range s.Ports {
		t += p.ClassPkts[c]
	}
	return t
}

// String renders the aggregate counters (deterministic; used in cluster
// fingerprints).
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: %d pkts forwarded (%d rpc, %d bulk), %d drops, %.1f MB",
		s.Forwarded(), s.ClassPkts(ClassRPC), s.ClassPkts(ClassBulk), s.Drops(),
		float64(s.Bytes())/1e6)
	// The fault-domain breakdown appears only when something fired, so a
	// fault-free run's fingerprint is byte-identical to pre-fault builds.
	if fd := s.FaultDrops(); fd > 0 {
		var down, black, corrupt int64
		for _, p := range s.Ports {
			down += p.PortDownDrops
			black += p.BlackholeDrops
			corrupt += p.CorruptDrops
		}
		fmt.Fprintf(&b, " [fault drops: %d portdown, %d blackhole, %d corrupt]", down, black, corrupt)
	}
	return b.String()
}

// Stats snapshots every port's counters.
func (sw *Switch) Stats() Stats {
	st := Stats{Ports: make([]PortStats, len(sw.ports))}
	for i, eg := range sw.ports {
		st.Ports[i] = PortStats{
			Port:            i,
			Admitted:        eg.admitted,
			Forwarded:       eg.forwarded,
			Bytes:           eg.sentBytes,
			EgressDrops:     eg.drops,
			IngressAdmitted: sw.ins[i].admitted,
			IngressDrops:    sw.ins[i].drops,
			ClassPkts:       eg.classPkts,
			HighWater:       eg.highWater,
			Queued:          eg.queued,
			PortDownDrops:   sw.ins[i].downDrops + eg.downDrops,
			BlackholeDrops:  sw.ins[i].blackholeDrops,
			CorruptDrops:    sw.ins[i].corruptDrops,
		}
	}
	return st
}

// CheckPort validates one egress port's conservation and DRR invariants,
// returning a descriptive error on violation. internal/check calls it on
// every PortEvent and at every drain; it is exported so the checker needs no
// private access.
func (sw *Switch) CheckPort(port int) error {
	eg := sw.ports[port]
	queued := 0
	for i := range eg.flows {
		f := &eg.flows[i]
		queued += f.len()
		if f.deficit < 0 {
			return fmt.Errorf("fabric %s port %d flow %d: negative deficit %d", sw.name, port, i, f.deficit)
		}
		if max := sw.cfg.Quantum + maxQueuedBytes(f); f.deficit > max {
			return fmt.Errorf("fabric %s port %d flow %d: deficit %d exceeds quantum+head bound %d",
				sw.name, port, i, f.deficit, max)
		}
		if f.len() > sw.cfg.FlowCap {
			return fmt.Errorf("fabric %s port %d flow %d: occupancy %d exceeds cap %d",
				sw.name, port, i, f.len(), sw.cfg.FlowCap)
		}
	}
	if queued != eg.queued {
		return fmt.Errorf("fabric %s port %d: queued counter %d != queue contents %d",
			sw.name, port, eg.queued, queued)
	}
	if eg.serQ < 0 || eg.serQ > 1 {
		return fmt.Errorf("fabric %s port %d: %d packets serializing on one wire", sw.name, port, eg.serQ)
	}
	if eg.admitted != eg.forwarded+int64(eg.queued)+int64(eg.serQ) {
		return fmt.Errorf("fabric %s port %d: conservation broken: admitted %d != forwarded %d + queued %d + serializing %d",
			sw.name, port, eg.admitted, eg.forwarded, eg.queued, eg.serQ)
	}
	return nil
}

// CheckConservation validates packet conservation across the whole switch:
// every ingress-admitted packet must be in the routing pipeline, accounted
// as a fault or tail drop, queued, serializing, or forwarded — the no-
// silent-loss half that lives inside the fabric (the transport half lives
// in cluster.CheckDelivery). internal/check runs it alongside CheckPort.
func (sw *Switch) CheckConservation() error {
	var inAdm, inFlight, routeDrops int64
	for _, in := range sw.ins {
		inAdm += in.admitted
		inFlight += int64(in.inFlight)
		routeDrops += in.blackholeDrops + in.corruptDrops
	}
	var egAdm, egRefused int64
	for _, eg := range sw.ports {
		egAdm += eg.admitted
		egRefused += eg.drops + eg.downDrops
	}
	if inAdm != inFlight+routeDrops+egRefused+egAdm {
		return fmt.Errorf("fabric %s: switch conservation broken: ingress-admitted %d != in-pipeline %d + route drops %d + egress-refused %d + egress-admitted %d",
			sw.name, inAdm, inFlight, routeDrops, egRefused, egAdm)
	}
	return nil
}

// NumPorts returns the number of attached ports.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// CorruptQueuedForTest bumps port's queued counter without queuing a
// packet, so the counter disagrees with the queue contents. It exists only
// so checker tests can seed a defect; no model path calls it.
func (sw *Switch) CorruptQueuedForTest(port int) { sw.ports[port].queued++ }

// maxQueuedBytes returns the largest queued packet's size (0 when empty):
// the slack a deficit may legitimately hold beyond one quantum is bounded by
// the packet the queue was waiting to afford.
func maxQueuedBytes(f *vq) int {
	m := 0
	for i := f.head; i < len(f.q); i++ {
		if b := f.q[i].pkt.Bytes; b > m {
			m = b
		}
	}
	return m
}
