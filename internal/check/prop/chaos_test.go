package prop

import (
	"fmt"
	"testing"

	"ccnic/internal/check"
	"ccnic/internal/cluster"
	"ccnic/internal/fault"
	"ccnic/internal/sim"
)

// runChaos runs the fabric chaos scenario under one in-fabric fault class:
// an 8-port incast of 512 B RPCs (window 8) plus seeded Ads tenant flows,
// on the redundant switch pair with the reliable transport recovering,
// for 2 ms of simulated time. Every switch carries an online invariant
// engine, and the no-silent-loss ledger is checked at the cutoff. It
// returns the cluster report, which must not depend on the worker count.
func runChaos(t *testing.T, class string, seed int64, workers int) string {
	t.Helper()
	plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d,%s=0.02", seed, class))
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{
		Hosts:    8,
		Workers:  workers,
		Window:   8,
		ReqSize:  512,
		Pattern:  cluster.PatternIncast,
		Faults:   plan,
		Reliable: true,
		Switches: 2,
		Flows: []cluster.FlowSpec{{
			Name: "ads", Srcs: []int{1, 2, 3, 4, 5, 6, 7}, Dst: 0, Dist: "ads",
			MeanGap: 800 * sim.Nanosecond, Tenants: 128,
			ZipfS: 0.75, TrackEvery: 8, Seed: 17,
		}},
	})
	var engines []*check.FabricEngine
	for _, sw := range c.Switches {
		e := check.AttachFabric(sw)
		e.SetCollect(true)
		engines = append(engines, e)
	}
	if err := c.Run(2 * sim.Millisecond); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	for i, e := range engines {
		if e.Checks() == 0 {
			t.Fatalf("workers=%d: switch %d was never checked", workers, i)
		}
		for _, v := range e.Violations() {
			t.Errorf("workers=%d: switch %d: %v", workers, i, v)
		}
	}
	if err := c.CheckDelivery(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if st := c.FaultStats(); st.Total() == 0 {
		t.Fatalf("workers=%d: the %s plan injected nothing", workers, class)
	}
	return c.Report().String()
}

// TestFabricChaos is the chaos matrix: each in-fabric fault class, over a
// seed grid, against the reliable transport. Each cell must hold the
// switch invariants and the delivery ledger, and produce the same report
// on 1 and 4 workers.
func TestFabricChaos(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, class := range []string{"portflap", "corrupt", "blackhole", "brownout"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", class, seed), func(t *testing.T) {
				t.Parallel()
				ref := runChaos(t, class, seed, 1)
				if got := runChaos(t, class, seed, 4); got != ref {
					t.Fatalf("report differs between 1 and 4 workers:\n1: %s\n4: %s", ref, got)
				}
			})
		}
	}
}
