// Package yieldstepclean is the step shape the device engines use: steps
// read and mutate state through non-yielding helpers, while the loop body
// around them yields freely.
package yieldstepclean

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

type queue struct {
	p          *proc
	work, wire int
}

// ingress mutates state without yielding, so a step may call it.
func (q *queue) ingress() bool {
	if q.wire == 0 {
		return false
	}
	q.wire--
	q.work++
	return true
}

// empty is a non-yielding method-value step.
func (q *queue) empty() bool { return q.work == 0 }

func (q *queue) fetch() {
	idle := func() bool {
		for q.work == 0 {
			if !q.ingress() {
				return true
			}
		}
		return false
	}
	for {
		if q.work > 0 {
			q.work--
			q.p.sleep(3) // the loop body may yield: it runs on the process
			continue
		}
		q.p.sleepWhile(1, idle)
		q.p.sleepWhile(1, q.empty)
	}
}
