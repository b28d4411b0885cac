package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ccnic/internal/sim.(*Kernel).Spawn.func1":         "ccnic/internal/sim",
		"ccnic/internal/sim/shard.(*Engine).runRound":      "ccnic/internal/sim/shard",
		"ccnic.(*Testbed).RunLoopback":                     "ccnic",
		"runtime.memclrNoHeapPointers":                     "runtime",
		"main.runRep":                                      "main",
		"iter.Pull[...].func1":                             "iter",
		"ccnic/internal/coherence.(*System).dirAt":         "ccnic/internal/coherence",
		"ccnic/internal/kvstore.Run.func2":                 "ccnic/internal/kvstore",
		"ccnic/internal/lint/flow.(*Graph).Successors":     "ccnic/internal/lint/flow",
		"ccnic/internal/cluster.(*Cluster).receive.gowrap": "ccnic/internal/cluster",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ccnic/internal/coherence.(*System).dirAt", "ccnic/internal/sim.(*Proc).Sleep"}, "coherence"},
		{[]string{"runtime.coroswitch", "ccnic/internal/sim.(*Proc).park", "ccnic/internal/device.(*UPI).nicServe"}, "sim"},
		{[]string{"ccnic/internal/sim/shard.(*Engine).runRound"}, "shard"},
		{[]string{"ccnic/internal/kvstore.Run.func2"}, "app"},
		{[]string{"ccnic/internal/mem.Lines", "ccnic/internal/device.(*UPI).nicServe"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "ccnic/internal/coherence.(*System).dirAt"}, "gc"},
		{[]string{"runtime.schedule", "runtime.park_m"}, "runtime"},
		{[]string{"crypto/sha256.block", "main.outcome.hash"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUByLayer decodes a real CPU profile of a sim kernel run and checks
// the attribution finds the kernel.
func TestCPUByLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		simSwitch(50_000)
	}
	pprof.StopCPUProfile()
	byLayer, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	if total == 0 {
		t.Skip("no CPU samples recorded")
	}
	if byLayer["sim"] == 0 {
		t.Errorf("no samples attributed to sim: %v", byLayer)
	}
}
