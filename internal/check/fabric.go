package check

import (
	"ccnic/internal/fabric"
)

// AttachFabric builds an engine for sw and installs it as both the switch's
// and its kernel's probe. After every queuing event on a port it re-checks
// that port's conservation (admitted = forwarded + queued + serializing),
// bounded occupancy and the DRR deficit bound (deficit <= quantum + largest
// queued packet), plus switch-wide conservation; every drain checks all
// ports.
func AttachFabric(sw *fabric.Switch) *Engine {
	e := &Engine{k: sw.Kernel(), sw: sw}
	sw.SetProbe(e)
	e.k.SetProbe(e)
	return e
}

// PortEvent implements fabric.Probe.
func (e *Engine) PortEvent(port int) {
	e.checks++
	if err := e.sw.CheckPort(port); err != nil {
		e.fail(err)
	}
	if err := e.sw.CheckConservation(); err != nil {
		e.fail(err)
	}
}

// switchPass is a switch engine's whole-model pass: switch-wide
// conservation and every port.
func (e *Engine) switchPass() {
	e.checks++
	if err := e.sw.CheckConservation(); err != nil {
		e.fail(err)
	}
	for port := 0; port < e.sw.NumPorts(); port++ {
		e.checks++
		if err := e.sw.CheckPort(port); err != nil {
			e.fail(err)
		}
	}
}

var _ fabric.Probe = (*Engine)(nil)
