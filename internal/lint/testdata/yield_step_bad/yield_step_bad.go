// Package yieldstepbad passes yielding functions as SleepWhile steps. A
// step runs on the scheduler, on another process's coroutine, so every
// yield reachable from it — directly, transitively, through a method value
// or through a local closure variable — must be flagged.
package yieldstepbad

type proc struct{ now int64 }

// sleep stands in for sim.Proc.Sleep.
//
//ccnic:yields
func (p *proc) sleep(d int64) { p.now += d }

// sleepWhile stands in for sim.Proc.SleepWhile: step runs on the scheduler.
//
//ccnic:steps
func (p *proc) sleepWhile(d int64, step func() bool) {
	p.sleep(d)
	for step() {
		p.sleep(d)
	}
}

// charge stands in for coherence.Agent.Exec: it yields transitively.
func charge(p *proc) { p.sleep(1) }

type queue struct {
	p    *proc
	work int
}

// idle is a method-value step that yields through charge.
func (q *queue) idle() bool {
	charge(q.p)
	return q.work == 0
}

func (q *queue) pollLiteral() {
	q.p.sleepWhile(1, func() bool {
		q.p.sleep(1) // want "call to yielding function sleep inside a SleepWhile step"
		return q.work == 0
	})
}

func (q *queue) pollTransitive() {
	q.p.sleepWhile(1, func() bool {
		if q.work > 0 {
			return false
		}
		charge(q.p) // want "call to yielding function charge inside a SleepWhile step \(charge -> sleep\)"
		return true
	})
}

func (q *queue) pollMethodValue() {
	q.p.sleepWhile(1, q.idle) // want "SleepWhile step idle yields \(idle -> charge -> sleep\)"
}

func (q *queue) pollVariable() {
	idle := func() bool {
		charge(q.p) // want "call to yielding function charge inside a SleepWhile step"
		return q.work == 0
	}
	for q.work == 0 {
		q.p.sleepWhile(1, idle)
		q.p.sleepWhile(2, idle)
	}
}
