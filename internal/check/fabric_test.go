package check_test

import (
	"regexp"
	"strconv"
	"testing"

	"ccnic/internal/check"
	"ccnic/internal/cluster"
	"ccnic/internal/sim"
)

// incast builds a 4-host incast cluster: every node sends 512 B RPCs to
// host 0 through one switch.
func incast() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Hosts: 4, Workers: 1, Window: 8, ReqSize: 512,
		Pattern: cluster.PatternIncast,
	})
}

// TestFabricEngineFlushesTotals: a switch engine counts as one engine once
// its kernel drains and hands every check it ran to the package totals.
func TestFabricEngineFlushesTotals(t *testing.T) {
	c := incast()
	e := check.AttachFabric(c.Switch)
	engines, checks := check.TotalEngines(), check.TotalChecks()
	if err := c.Run(50 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.Checks() == 0 {
		t.Fatal("the switch was never checked")
	}
	if got := check.TotalChecks() - checks; got != e.Checks() {
		t.Errorf("TotalChecks grew by %d, want the engine's %d", got, e.Checks())
	}
	if got := check.TotalEngines() - engines; got != 1 {
		t.Errorf("TotalEngines grew by %d, want 1", got)
	}
}

// TestFabricEngineCatchesCorruptQueue is the switch engine's seeded defect:
// a port's queued counter knocked out of step with its queue contents at
// 5us is reported, naming the switch, the port and the sim time, and
// nothing is reported before it.
func TestFabricEngineCatchesCorruptQueue(t *testing.T) {
	const at = 5 * sim.Microsecond
	c := incast()
	sw := c.Switch
	e := check.AttachFabric(sw)
	e.SetCollect(true)
	sw.Kernel().Spawn("corrupt", func(p *sim.Proc) {
		p.Sleep(at)
		sw.CorruptQueuedForTest(0)
	})
	if err := c.Run(20 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(e.Violations()) == 0 {
		t.Fatal("corrupted queue counter went undetected")
	}
	msg := e.Violations()[0].Error()
	m := regexp.MustCompile(`^invariant violated at t=([0-9.]+)us: fabric fabric port 0: queued counter`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("diagnostic %q does not name the sim time, the switch and the port", msg)
	}
	if us, _ := strconv.ParseFloat(m[1], 64); sim.Time(us*float64(sim.Microsecond)) < at {
		t.Errorf("violation %q reported before the corruption at %v", msg, at)
	}
}
