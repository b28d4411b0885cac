package main

import (
	"runtime/metrics"
	"time"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/fabric"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/ring"
	"ccnic/internal/sim"
	"ccnic/internal/sim/shard"
)

// The micro-drivers time one layer's public calls each. Every driver runs
// microBatches times and reports the median per operation, so one slow
// batch (a GC cycle, a preempted worker) does not move the figure.
const microBatches = 5

// microDriver is one layer's micro-driver: batch runs one timed batch and
// returns its metrics.
type microDriver struct {
	layer, name string
	batch       func() map[string]float64
}

var microDrivers = []microDriver{
	{"sim", "Proc.Sleep fast path", func() map[string]float64 {
		return map[string]float64{"sim.sleep_ns": simSleep(200_000)}
	}},
	{"sim", "two-proc handoff", func() map[string]float64 {
		return map[string]float64{"sim.switch_ns": simSwitch(100_000)}
	}},
	{"sim", "Wait/Signal", func() map[string]float64 {
		return map[string]float64{"sim.signal_ns": simSignal(100_000)}
	}},
	{"coherence", "remote-Modified Agent.Read", func() map[string]float64 {
		return map[string]float64{"coherence.read_remote_ns": coherenceReadRemote(512, 40)}
	}},
	{"coherence", "first touch of a 256 KB span", func() map[string]float64 {
		ns, bytes := coherenceFirstTouch(32)
		return map[string]float64{"coherence.first_touch_ns": ns, "coherence.first_touch_bytes": bytes}
	}},
	{"ring", "Inline Post+Consume burst", func() map[string]float64 {
		return map[string]float64{"ring.post_consume_ns": ringPostConsume(32, 5_000)}
	}},
	{"bufpool", "Port.Alloc+Free", func() map[string]float64 {
		ns, allocs := bufpoolAllocFree(100_000)
		return map[string]float64{"bufpool.alloc_free_ns": ns, "bufpool.alloc_free_allocs": allocs}
	}},
	{"shard", "Engine.Run round", func() map[string]float64 {
		return map[string]float64{"shard.round_ns": shardRound(5 * sim.Millisecond)}
	}},
	{"shard", "cross-shard Link.Send", func() map[string]float64 {
		return map[string]float64{"shard.send_ns": shardSend(5 * sim.Millisecond)}
	}},
	{"fabric", "uncongested Switch.Ingress to deliver", func() map[string]float64 {
		return map[string]float64{"fabric.forward_ns": fabricForward(20_000)}
	}},
}

// runMicro runs every micro-driver and adds the medians to m.
func runMicro(tr *tracer, m map[string]float64) {
	for _, d := range microDrivers {
		id := tr.begin("micro "+d.name, d.layer)
		samples := map[string][]float64{}
		for i := 0; i < microBatches; i++ {
			for k, v := range d.batch() {
				samples[k] = append(samples[k], v)
			}
		}
		for k, vs := range samples {
			m[k] = median(vs)
		}
		tr.end(id)
	}
}

// run drives k to completion; the micro-drivers' processes always finish.
func run(k *sim.Kernel) {
	if err := k.Run(); err != nil {
		panic(err)
	}
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// simSleep times Proc.Sleep on the run-next fast path: one process, no
// other runnable process.
func simSleep(n int) float64 {
	k := sim.New()
	var el time.Duration
	k.Spawn("sleeper", func(p *sim.Proc) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
		}
		el = time.Since(t0)
	})
	run(k)
	return nsPer(el, n)
}

// simSwitch times a two-process handoff: the processes alternate, so
// every Sleep switches coroutines. Reported per switch.
func simSwitch(n int) float64 {
	k := sim.New()
	for i := 0; i < 2; i++ {
		k.Spawn("pingpong", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(sim.Nanosecond)
			}
		})
	}
	t0 := time.Now()
	run(k)
	return nsPer(time.Since(t0), 2*n)
}

// simSignal times one Wait/Signal cycle: a waiter parked on an event, a
// signaler that sleeps and signals.
func simSignal(n int) float64 {
	k := sim.New()
	ev := k.NewEvent("tick")
	k.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(ev)
		}
	})
	k.Spawn("signaler", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
			ev.Signal()
		}
	})
	t0 := time.Now()
	run(k)
	return nsPer(time.Since(t0), n)
}

// coherenceReadRemote times a steady remote-Modified Agent.Read: each round
// the NIC-socket agent writes every line (taking it Modified), then the
// host agent reads every line back; only the reads are timed.
func coherenceReadRemote(lines, rounds int) float64 {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	host, nic := sys.NewAgent(0, "host"), sys.NewAgent(1, "nic")
	base := sys.Space().AllocLines(1, lines)
	var el time.Duration
	k.Spawn("reader", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < lines; i++ {
				nic.Write(p, base+mem.Addr(i*mem.LineSize), mem.LineSize)
			}
			p.Sleep(sim.Microsecond) // let the stores commit
			t0 := time.Now()
			for i := 0; i < lines; i++ {
				host.Read(p, base+mem.Addr(i*mem.LineSize), mem.LineSize)
			}
			el += time.Since(t0)
		}
	})
	run(k)
	return nsPer(el, lines*rounds)
}

// span256K is the simulated address span one coherence index page covers.
const span256K = 256 << 10

// coherenceFirstTouch times the first access to never-touched 256 KB spans
// on a fresh System and reads the heap bytes those accesses allocate: the
// coherence layer's page-allocation path.
func coherenceFirstTouch(spans int) (ns, bytes float64) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	a := sys.NewAgent(0, "host")
	base := sys.Space().Alloc(0, spans*span256K, span256K)
	var el time.Duration
	var allocated uint64
	allocBytes := heapCounter("/gc/heap/allocs:bytes")
	k.Spawn("toucher", func(p *sim.Proc) {
		b0 := allocBytes()
		t0 := time.Now()
		for i := 0; i < spans; i++ {
			a.Read(p, base+mem.Addr(i*span256K), mem.LineSize)
		}
		el = time.Since(t0)
		allocated = allocBytes() - b0
	})
	run(k)
	return nsPer(el, spans), float64(allocated) / float64(spans)
}

// ringPostConsume times an Inline ring's Post of a burst by the host and
// its Consume by the NIC agent. Reported per burst.
func ringPostConsume(burst, n int) float64 {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	host, nic := sys.NewAgent(0, "host"), sys.NewAgent(1, "nic")
	pool := bufpool.New(bufpool.Config{Sys: sys, BigCount: 4 * burst, BigSize: 2048,
		Shared: true, Recycle: true, SmallBufs: true})
	port := pool.Attach(host)
	r := ring.NewInline(sys, ring.Grouped, 64, 0)
	var el time.Duration
	k.Spawn("ring", func(p *sim.Proc) {
		free := make([]*bufpool.Buf, burst, 2*burst)
		if port.AllocBurst(p, 64, free) != burst {
			panic("perfbench: ring micro-driver: pool exhausted")
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			posted := r.Post(p, host, free)
			left := copy(free, free[posted:])
			p.Sleep(200 * sim.Nanosecond) // publishes become visible
			free = append(free[:left], r.Consume(p, nic, burst)...)
		}
		el = time.Since(t0)
		r.TakeReclaimed()
		port.FreeBurst(p, free)
	})
	run(k)
	return nsPer(el, n)
}

// bufpoolAllocFree times a Port.Alloc+Free pair on a recycling pool and
// counts its heap allocations.
func bufpoolAllocFree(n int) (ns, allocs float64) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	host := sys.NewAgent(0, "host")
	pool := bufpool.New(bufpool.Config{Sys: sys, BigCount: 64, BigSize: 2048,
		Recycle: true, SmallBufs: true})
	port := pool.Attach(host)
	var el time.Duration
	var objs uint64
	allocObjects := heapCounter("/gc/heap/allocs:objects")
	k.Spawn("pool", func(p *sim.Proc) {
		for i := 0; i < 100; i++ { // warm the recycling stack
			port.Free(p, port.Alloc(p, 64))
		}
		o0 := allocObjects()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			port.Free(p, port.Alloc(p, 64))
		}
		el = time.Since(t0)
		objs = allocObjects() - o0
	})
	run(k)
	return nsPer(el, n), float64(objs) / float64(n)
}

// shardPair builds a two-shard engine on 2 workers, linked both ways with a
// 1 us lookahead, each shard running a process that sleeps in 100 ns steps
// (ten events per round). With send set, shard 0's process also sends one
// message per step to shard 1.
func shardPair(send bool) (e *shard.Engine, msgs *int) {
	const lookahead, step = sim.Microsecond, 100 * sim.Nanosecond
	e = shard.NewEngine(2)
	a := e.NewShard("a", sim.New())
	b := e.NewShard("b", sim.New())
	msgs = new(int)
	ab := e.Connect(a, b, lookahead, 0, func(*sim.Proc, any) { *msgs++ })
	e.Connect(b, a, lookahead, 0, func(*sim.Proc, any) {})
	payload := &struct{}{}
	a.Kernel().Spawn("busy", func(p *sim.Proc) {
		for {
			if send {
				ab.Send(p, lookahead, payload)
			}
			p.Sleep(step)
		}
	})
	b.Kernel().Spawn("busy", func(p *sim.Proc) {
		for {
			p.Sleep(step)
		}
	})
	return e, msgs
}

func runEngine(e *shard.Engine, until sim.Time) time.Duration {
	t0 := time.Now()
	if err := e.Run(until); err != nil {
		panic(err)
	}
	el := time.Since(t0)
	for _, s := range e.Shards() {
		s.Kernel().Shutdown()
	}
	return el
}

// shardRound times Engine.Run over two busy shards at 2 workers, per round;
// the round count is the horizon divided by the lookahead.
func shardRound(until sim.Time) float64 {
	e, _ := shardPair(false)
	return nsPer(runEngine(e, until), int(until/sim.Microsecond))
}

// busyMinusIdle times the same engine run twice, idle and then busy, and
// returns the busy run's extra time per operation: the cost of the ops
// operations with the engine's own round overhead taken out. build(false)
// builds the idle engine; build(true) builds the busy one and returns a
// pointer to the count of operations it completes. A difference below zero
// is timing noise and reads as 0.
func busyMinusIdle(build func(busy bool) (*shard.Engine, *int), until sim.Time) float64 {
	idleEngine, _ := build(false)
	idle := runEngine(idleEngine, until)
	e, ops := build(true)
	busy := runEngine(e, until)
	if busy < idle || *ops == 0 {
		return 0
	}
	return nsPer(busy-idle, *ops)
}

// shardSend times a cross-shard Link.Send through to its delivery.
func shardSend(until sim.Time) float64 {
	return busyMinusIdle(shardPair, until)
}

// fabricForward times one packet through an uncongested two-port switch,
// from Switch.Ingress on host 0 to the deliver callback on host 1.
func fabricForward(n int) float64 {
	var delivered *int
	build := func(busy bool) (e *shard.Engine, ops *int) {
		e, ops = fabricPair(n, busy)
		if busy {
			delivered = ops
		}
		return e, ops
	}
	ns := busyMinusIdle(build, sim.Time(n+10)*sim.Microsecond)
	if *delivered != n {
		panic("perfbench: fabric micro-driver lost packets")
	}
	return ns
}

// fabricPair builds two hosts on a two-port switch on a serial engine, with
// a process on host 0 that steps once per microsecond for n steps. With send
// set, each step sends one packet to host 1, far below the port's
// serialization rate.
func fabricPair(n int, send bool) (e *shard.Engine, delivered *int) {
	e = shard.NewEngine(1)
	h0 := e.NewShard("h0", sim.New())
	h1 := e.NewShard("h1", sim.New())
	sw := fabric.New(e, "sw", fabric.Config{Ports: 2, BW: 12.5, HopLat: 500 * sim.Nanosecond,
		RouteLat: 100 * sim.Nanosecond})
	delivered = new(int)
	sw.Attach(e, 0, h0, func(*sim.Proc, fabric.Packet) {})
	sw.Attach(e, 1, h1, func(*sim.Proc, fabric.Packet) { *delivered++ })
	h0.Kernel().Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if send {
				sw.Ingress(p, 0, fabric.Packet{Src: 0, Dst: 1, Class: fabric.ClassRPC, Bytes: 512})
			}
			p.Sleep(sim.Microsecond)
		}
	})
	return e, delivered
}

// heapCounter returns a reader of one of the runtime's cumulative uint64
// metrics. The reader does not allocate, so it can bracket code whose
// allocations are being counted.
func heapCounter(name string) func() uint64 {
	s := []metrics.Sample{{Name: name}}
	return func() uint64 {
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
}
