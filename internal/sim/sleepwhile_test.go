package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A SleepWhile step that reports idle costs one event per poll, and the
// process resumes at the poll that reports work, exactly as the equivalent
// Sleep loop would.
func TestSleepWhileMatchesSleepLoop(t *testing.T) {
	for _, useStep := range []bool{false, true} {
		k := New()
		polls := 0
		var resumed Time
		k.Spawn("poller", func(p *Proc) {
			idle := func() bool {
				polls++
				return polls < 5
			}
			if useStep {
				p.SleepWhile(10*Nanosecond, idle)
			} else {
				p.Sleep(10 * Nanosecond)
				for idle() {
					p.Sleep(10 * Nanosecond)
				}
			}
			resumed = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if polls != 5 || resumed != 50*Nanosecond || k.Events() != 6 {
			t.Errorf("step=%v: polls=%d resumed=%v events=%d, want 5, 50ns, 6",
				useStep, polls, resumed, k.Events())
		}
	}
}

// A step runs on the scheduler, so a yield inside it would park the wrong
// coroutine; park must refuse it loudly instead.
func TestSleepWhileStepMustNotYield(t *testing.T) {
	for _, name := range []string{"Sleep", "Wait"} {
		t.Run(name, func(t *testing.T) {
			k := New()
			ev := k.NewEvent("never")
			k.Spawn("peer", func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Sleep(Nanosecond)
				}
			})
			k.Spawn("poller", func(p *Proc) {
				p.SleepWhile(Nanosecond, func() bool {
					if name == "Sleep" {
						p.Sleep(Nanosecond)
					} else {
						p.Wait(ev)
					}
					return true
				})
			})
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "must not yield") {
					t.Fatalf("recovered %v, want the step-yield panic", r)
				}
			}()
			_ = k.Run()
		})
	}
}

// fuzzInput decodes a fuzz byte string; reads past the end yield zero.
type fuzzInput struct {
	b []byte
	i int
}

func (in *fuzzInput) next(n int) int {
	if in.i >= len(in.b) {
		return 0
	}
	v := int(in.b[in.i]) % n
	in.i++
	return v
}

// fuzzProc is one process of a generated program.
type fuzzProc struct {
	kind    int // 0 poller, 1 sleeper, 2 waiter, 3 yielder
	gap     Time
	iters   int
	idleMax int // poller: idle polls before its step reports work
	signal  int // signal an event every signal-th poll or iteration (0: never)
	spawn   int // poller: spawn a child every spawn-th poll (0: never)
	target  int // sleeper/child: the poller index whose work flag it raises
	ev      int // which event to wait on or signal
}

// fuzzProgram is a random process set plus the way the kernel is driven.
type fuzzProgram struct {
	procs     []fuzzProc
	drive     int // 0 Run, 1 RunUntil chain then Run, 2 RunUntil chain then Shutdown
	deadlines []Time
	stopAt    int // the shared counter value at which Stop is called (0: never)
}

func decodeProgram(data []byte) fuzzProgram {
	in := &fuzzInput{b: data}
	var prog fuzzProgram
	n := 1 + in.next(6)
	for i := 0; i < n; i++ {
		prog.procs = append(prog.procs, fuzzProc{
			kind:    in.next(4),
			gap:     Time(in.next(4)) * Nanosecond,
			iters:   1 + in.next(6),
			idleMax: 1 + in.next(6),
			signal:  in.next(4),
			spawn:   in.next(5),
			target:  in.next(6),
			ev:      in.next(2),
		})
	}
	prog.drive = in.next(3)
	at := Time(0)
	for i := 1 + in.next(4); i > 0; i-- {
		at += Time(1+in.next(8)) * Nanosecond
		prog.deadlines = append(prog.deadlines, at)
	}
	if in.next(2) == 1 {
		prog.stopAt = 1 + in.next(64)
	}
	return prog
}

// fuzzRec is one trace entry: who ran (or stepped), and when.
type fuzzRec struct {
	at   Time
	proc int
	what string // "r" resumed, "s" stepped, "c" child ran, "d" deadline reached
}

// fuzzOutcome is everything the differential comparison looks at.
type fuzzOutcome struct {
	trace       []fuzzRec
	events      uint64
	now         Time
	probeEvents int
	runEnds     int
	errs        []string
	live        int
}

type countingProbe struct{ events, runEnds int }

func (c *countingProbe) Event(Time)  { c.events++ }
func (c *countingProbe) RunEnd(Time) { c.runEnds++ }

// runProgram executes prog on a fresh kernel. Pollers use SleepWhile when
// useStep is set and the equivalent Sleep loop otherwise; everything else is
// the same code. Steps are deliberately impure: they bump the shared
// counter, signal events, spawn children and may stop the kernel.
func runProgram(prog fuzzProgram, useStep bool) fuzzOutcome {
	k := New()
	probe := &countingProbe{}
	k.SetProbe(probe)
	evs := [2]*Event{k.NewEvent("e0"), k.NewEvent("e1")}
	var out fuzzOutcome
	counter, spawned := 0, 0
	work := make([]bool, len(prog.procs))
	rec := func(at Time, id int, what string) {
		out.trace = append(out.trace, fuzzRec{at, id, what})
	}
	bump := func() {
		counter++
		if counter == prog.stopAt {
			k.Stop()
		}
	}
	for id, fp := range prog.procs {
		id, fp := id, fp
		target := fp.target % len(prog.procs)
		switch fp.kind {
		case 0: // poller
			k.Spawn("poller", func(p *Proc) {
				polls, idleLeft := 0, 0
				step := func() bool {
					rec(p.Now(), id, "s")
					bump()
					polls++
					if fp.signal > 0 && polls%fp.signal == 0 {
						evs[fp.ev].Signal()
					}
					if fp.spawn > 0 && polls%fp.spawn == 0 && spawned < 16 {
						spawned++
						k.Spawn("child", func(c *Proc) {
							c.Sleep(fp.gap)
							rec(c.Now(), id, "c")
							work[target] = true
							bump()
						})
					}
					if work[id] {
						work[id] = false
						return false
					}
					idleLeft--
					return idleLeft > 0
				}
				for i := 0; i < fp.iters; i++ {
					idleLeft = fp.idleMax
					if useStep {
						p.SleepWhile(fp.gap, step)
					} else {
						p.Sleep(fp.gap)
						for step() {
							p.Sleep(fp.gap)
						}
					}
					rec(p.Now(), id, "r")
					bump()
				}
			})
		case 1: // sleeper: raises a poller's work flag each iteration
			k.Spawn("sleeper", func(p *Proc) {
				for i := 0; i < fp.iters; i++ {
					p.Sleep(fp.gap)
					rec(p.Now(), id, "r")
					work[target] = true
					if fp.signal > 0 && i%fp.signal == 0 {
						evs[fp.ev].Signal()
					}
					bump()
				}
			})
		case 2: // waiter
			k.Spawn("waiter", func(p *Proc) {
				for i := 0; i < fp.iters; i++ {
					p.Wait(evs[fp.ev])
					rec(p.Now(), id, "r")
					bump()
				}
			})
		default: // yielder
			k.Spawn("yielder", func(p *Proc) {
				for i := 0; i < fp.iters; i++ {
					p.Yield()
					rec(p.Now(), id, "r")
					bump()
				}
			})
		}
	}
	errStr := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if prog.drive == 0 {
		out.errs = append(out.errs, errStr(k.Run()))
	} else {
		for _, d := range prog.deadlines {
			out.errs = append(out.errs, errStr(k.RunUntil(d)))
			rec(k.Now(), -1, "d")
		}
		if prog.drive == 1 {
			out.errs = append(out.errs, errStr(k.Run()))
		}
	}
	out.events, out.now = k.Events(), k.Now()
	out.probeEvents, out.runEnds = probe.events, probe.runEnds
	k.Shutdown()
	out.live = k.Live()
	return out
}

// FuzzSleepWhile checks SleepWhile against the Sleep loop it stands for:
// random process sets — impure pollers, sleepers, waiters, yielders — driven
// through Run, chained RunUntil deadlines, Stop and Shutdown must produce
// the same (time, process) trace, event count, final clock, probe calls and
// run errors either way.
func FuzzSleepWhile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 3, 2, 1, 0, 0, 0, 1, 1, 2, 4, 1, 0, 0, 1, 2, 0, 2, 3, 3, 0, 0, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{5, 0, 0, 5, 5, 2, 3, 1, 0, 0, 2, 4, 3, 3, 0, 0, 0, 1, 0, 1, 4, 2, 2, 1, 3, 2, 2, 0, 3, 0, 1, 0, 2, 2, 1, 2, 1, 2, 3, 7, 1, 9})
	f.Add([]byte{4, 0, 1, 2, 6, 1, 2, 2, 1, 0, 2, 3, 4, 0, 4, 1, 3, 1, 1, 1, 1, 1, 0, 3, 0, 2, 5, 2, 4, 2, 0, 0, 0, 2, 3, 2, 5, 4, 1, 1, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(data)
		want := runProgram(prog, false)
		got := runProgram(prog, true)
		if reflect.DeepEqual(got, want) {
			return
		}
		i := 0
		for i < len(got.trace) && i < len(want.trace) && got.trace[i] == want.trace[i] {
			i++
		}
		t.Fatalf("SleepWhile diverges from the Sleep loop for %+v\n"+
			"first trace difference at entry %d: sleep loop %v, sleepwhile %v\n"+
			"sleep loop: events=%d now=%v probe=%d/%d errs=%q live=%d\n"+
			"sleepwhile: events=%d now=%v probe=%d/%d errs=%q live=%d",
			prog, i, want.trace[i:min(i+4, len(want.trace))], got.trace[i:min(i+4, len(got.trace))],
			want.events, want.now, want.probeEvents, want.runEnds, want.errs, want.live,
			got.events, got.now, got.probeEvents, got.runEnds, got.errs, got.live)
	})
}

// BenchmarkIdlePoll measures one idle poll among n polling processes, as a
// Sleep loop (every poll is a coroutine round trip through the run loop)
// and as a SleepWhile step (every poll is a function call on the
// scheduler). Each op is one poll.
func BenchmarkIdlePoll(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		for _, useStep := range []bool{false, true} {
			name := "sleep"
			if useStep {
				name = "step"
			}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				k := New()
				polls := 0
				idle := func() bool {
					polls++
					return polls < b.N
				}
				for i := 0; i < n; i++ {
					k.Spawn("poller", func(p *Proc) {
						if useStep {
							p.SleepWhile(Nanosecond, idle)
						} else {
							p.Sleep(Nanosecond)
							for idle() {
								p.Sleep(Nanosecond)
							}
						}
						k.Stop()
					})
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
