package experiments

import (
	"runtime"
	"time"

	"ccnic/internal/sim"
)

// HostCost captures the host-side cost of regenerating one experiment: how
// long it took in wall-clock terms, how many simulation events it executed,
// and how much it allocated per event. ccbench prints it in each
// experiment's `[... completed in ...]` trailer.
type HostCost struct {
	WallSeconds  float64
	SimEvents    uint64
	EventsPerSec float64
	AllocsPerEvt float64
}

// Measure runs the experiment and reports both its model-level output and
// its host-side cost. Event counts come from the simulation kernels the
// experiment creates internally (including ones running on worker
// goroutines), via the sim package's process-wide event counter; callers
// should not run other experiments concurrently while measuring.
func Measure(e *Experiment, opt Options) (*Report, HostCost) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0 := sim.TotalEvents()
	start := time.Now() //ccnic:nondet-ok host-side measurement, never model input

	r := e.Run(opt)

	wall := time.Since(start) //ccnic:nondet-ok host-side measurement, never model input
	events := sim.TotalEvents() - ev0
	runtime.ReadMemStats(&m1)

	c := HostCost{WallSeconds: wall.Seconds(), SimEvents: events}
	if c.WallSeconds > 0 {
		c.EventsPerSec = float64(events) / c.WallSeconds
	}
	if events > 0 {
		c.AllocsPerEvt = float64(m1.Mallocs-m0.Mallocs) / float64(events)
	}
	return r, c
}
