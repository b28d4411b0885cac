package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.00ns"},
		{3 * Microsecond, "3.00us"},
		{4 * Millisecond, "4.000ms"},
		{2 * Second, "2.0000s"},
		{-2 * Nanosecond, "-2.00ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := FromNanos(2.5); got != 2500*Picosecond {
		t.Errorf("FromNanos(2.5) = %v, want 2500ps", int64(got))
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

func TestSingleProcAdvancesTime(t *testing.T) {
	k := New()
	var end Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		p.Sleep(5 * Nanosecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*Nanosecond {
		t.Errorf("end time = %v, want 15ns", end)
	}
	if k.Live() != 0 {
		t.Errorf("live = %d, want 0", k.Live())
	}
}

func TestInterleavingIsTimeOrdered(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(20 * Nanosecond)
		order = append(order, "slow@20")
	})
	k.Spawn("fast", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		order = append(order, "fast@5")
		p.Sleep(30 * Nanosecond)
		order = append(order, "fast@35")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"fast@5", "slow@20", "fast@35"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEventSignalWakesWaiters(t *testing.T) {
	k := New()
	ev := k.NewEvent("e")
	var woke []Time
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, p.Now())
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		if ev.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", ev.Waiters())
		}
		ev.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 100*Nanosecond {
			t.Errorf("waiter woke at %v, want 100ns", w)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	ev := k.NewEvent("never")
	k.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	// The error must name the blocked process and the event it waits on.
	for _, want := range []string{`"stuck"`, `"never"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q does not mention %s", err, want)
		}
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Errorf("live after Shutdown = %d, want 0", k.Live())
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	k := New()
	var ticks int
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * Nanosecond)
			ticks++
		}
	})
	if err := k.RunUntil(35 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Errorf("ticks after 35ns = %d, want 3", ticks)
	}
	if k.Now() != 35*Nanosecond {
		t.Errorf("now = %v, want 35ns", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("ticks after full run = %d, want 10", ticks)
	}
}

func TestStopAbortsProcesses(t *testing.T) {
	k := New()
	k.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(Nanosecond)
		}
	})
	k.Spawn("stopper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Live() != 0 {
		t.Errorf("live = %d, want 0 after Stop", k.Live())
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	k := New()
	var childRan Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(50 * Nanosecond)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(25 * Nanosecond)
			childRan = c.Now()
		})
		p.Sleep(100 * Nanosecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 75*Nanosecond {
		t.Errorf("child finished at %v, want 75ns", childRan)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-5 * Nanosecond)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcName(t *testing.T) {
	k := New()
	k.Spawn("worker-7", func(p *Proc) {
		if p.Name() != "worker-7" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelDeterminism runs the same mixed workload twice and requires an
// identical trace — the core guarantee everything else relies on.
func TestKernelDeterminism(t *testing.T) {
	run := func() []Time {
		k := New()
		var trace []Time
		ev := k.NewEvent("e")
		for i := 0; i < 8; i++ {
			d := Time(i+1) * 7 * Nanosecond
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(d)
					trace = append(trace, p.Now())
					if j == 10 {
						ev.Signal()
					}
				}
			})
		}
		k.Spawn("waiter", func(p *Proc) {
			p.Wait(ev)
			trace = append(trace, p.Now())
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A RunUntil deadline exactly equal to a wake time runs that wake (the cut
// is strictly-after), and the clock lands exactly on the deadline.
func TestRunUntilDeadlineEqualsWake(t *testing.T) {
	k := New()
	var wokeAt []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			wokeAt = append(wokeAt, p.Now())
		}
	})
	if err := k.RunUntil(30 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(wokeAt) != 3 || wokeAt[2] != 30*Nanosecond {
		t.Errorf("wakes = %v, want exactly [10ns 20ns 30ns]", wokeAt)
	}
	if k.Now() != 30*Nanosecond {
		t.Errorf("now = %v, want 30ns", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wokeAt) != 5 {
		t.Errorf("wakes after full run = %d, want 5", len(wokeAt))
	}
}

// Shutdown must unwind waiters spread across several events, including
// events that also have already-drained peers.
func TestShutdownWithWaitersOnMultipleEvents(t *testing.T) {
	k := New()
	evs := []*Event{k.NewEvent("a"), k.NewEvent("b"), k.NewEvent("c")}
	drained := k.NewEvent("drained")
	for i, ev := range evs {
		ev := ev
		for j := 0; j <= i; j++ {
			k.Spawn("w", func(p *Proc) { p.Wait(ev) })
		}
	}
	k.Spawn("quick", func(p *Proc) { p.Wait(drained) })
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(Nanosecond)
		drained.Signal()
	})
	if err := k.RunUntil(10 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if got := evs[0].Waiters() + evs[1].Waiters() + evs[2].Waiters(); got != 6 {
		t.Fatalf("waiters before Shutdown = %d, want 6", got)
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Errorf("live after Shutdown = %d, want 0", k.Live())
	}
	for _, ev := range evs {
		if ev.Waiters() != 0 {
			t.Errorf("event %q still has %d waiters", ev.name, ev.Waiters())
		}
	}
}

// A kernel paused by RunUntil (with a proc parked past the deadline and a
// waiter parked on an event) must resume cleanly from a later Run.
func TestRerunAfterRunUntil(t *testing.T) {
	k := New()
	ev := k.NewEvent("go")
	var waiterWoke, sleeperWoke Time
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(ev)
		waiterWoke = p.Now()
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		sleeperWoke = p.Now()
		ev.Signal()
	})
	if err := k.RunUntil(40 * Nanosecond); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 40*Nanosecond || waiterWoke != 0 || sleeperWoke != 0 {
		t.Fatalf("paused state wrong: now=%v waiter=%v sleeper=%v",
			k.Now(), waiterWoke, sleeperWoke)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sleeperWoke != 100*Nanosecond || waiterWoke != 100*Nanosecond {
		t.Errorf("woke at (%v, %v), want both 100ns", sleeperWoke, waiterWoke)
	}
}

// The steady-state Sleep/Signal hot path must not allocate: parking,
// resuming, waiting, signaling and scheduler-run SleepWhile steps all
// recycle their storage once the heap and waiter slices have grown to
// workload size.
func TestSteadyStateZeroAllocs(t *testing.T) {
	k := New()
	ev := k.NewEvent("tick")
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(3 * Nanosecond)
		}
	})
	k.Spawn("poller", func(p *Proc) {
		polls := 0
		idle := func() bool {
			polls++
			return polls%7 != 0
		}
		for {
			p.SleepWhile(2*Nanosecond, idle)
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for {
			p.Wait(ev)
		}
	})
	k.Spawn("signaler", func(p *Proc) {
		for {
			p.Sleep(10 * Nanosecond)
			ev.Signal()
		}
	})
	deadline := Time(0)
	step := func() {
		deadline += Microsecond
		if err := k.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm up: grow heap, waiter lists, and event registration
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Errorf("steady-state Sleep/Signal allocates %v allocs/run, want 0", avg)
	}
	k.Shutdown()
}
func TestResourceProperties(t *testing.T) {
	f := func(holds []uint16) bool {
		var r Resource
		now := Time(0)
		prevBusy := Time(0)
		for _, h := range holds {
			hold := Time(h) * Picosecond
			delay := r.Acquire(now, hold)
			if delay < 0 {
				return false
			}
			if r.BusyUntil() < prevBusy {
				return false
			}
			wantDelay := Time(0)
			if prevBusy > now {
				wantDelay = prevBusy - now
			}
			if delay != wantDelay {
				return false
			}
			prevBusy = r.BusyUntil()
			now += hold / 2 // arrivals at half service rate: backlog grows
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceIdleThenBusy(t *testing.T) {
	var r Resource
	if d := r.Acquire(100, 50); d != 0 {
		t.Errorf("idle acquire delay = %d, want 0", d)
	}
	if d := r.Acquire(120, 50); d != 30 {
		t.Errorf("busy acquire delay = %d, want 30", d)
	}
	if r.BusyTotal() != 100 {
		t.Errorf("busyTotal = %d, want 100", r.BusyTotal())
	}
	if b := r.Backlog(150); b != 50 {
		t.Errorf("backlog = %d, want 50", b)
	}
	r.Reset()
	if r.BusyUntil() != 0 || r.BusyTotal() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestHeapOrdering(t *testing.T) {
	var h procHeap
	times := []Time{50, 10, 30, 10, 90, 20}
	for i, w := range times {
		h.push(&Proc{wake: w, seq: uint64(i)})
	}
	if h.peek().wake != 10 {
		t.Errorf("peek = %v, want 10", h.peek().wake)
	}
	var got []Time
	var seqs []uint64
	for {
		p := h.pop()
		if p == nil {
			break
		}
		got = append(got, p.wake)
		seqs = append(seqs, p.seq)
	}
	want := []Time{10, 10, 20, 30, 50, 90}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
	// Equal wake times must preserve insertion order (seq 1 before seq 3).
	if seqs[0] != 1 || seqs[1] != 3 {
		t.Errorf("tie-break order = %v, want seq 1 then 3", seqs[:2])
	}
	if h.pop() != nil {
		t.Error("pop on empty heap should return nil")
	}
}
