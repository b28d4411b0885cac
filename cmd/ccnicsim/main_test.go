package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"ccnic/internal/cluster"
)

// TestValidate drives the real flag set: every bad input the models would
// panic or hang on is refused up front with a message naming the problem.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error; "" means accepted
	}{
		{"", ""},
		{"-workload cluster -hosts 8 -window 32 -pkt 4096 -measure 4000", ""},
		{"-workload cluster -reliable -faults seed=3,blackhole=0.02", ""},
		{"-iface overlay -workload kv -dist geo -queues 16", ""},
		{"-measure -5", "-measure"},
		{"-measure 0", "-measure"},
		{"-measure NaN", "-measure"},
		{"-rate -1", "-rate"},
		{"-queues -1", "-queues"},
		{"-queues 17", "-queues"},
		{"-pkt 0", "-pkt"},
		{"-window -1", "-window"},
		{"-txbatch 0", "-txbatch"},
		{"-overlay-threads -1", "-overlay-threads"},
		{"-workload cluster -hosts 1", "-hosts"},
		{"-workload cluster -hosts 1 -bulk 1", "-hosts"},
		{"-workload cluster -hosts -2", "-hosts"},
		{"-workload cluster -bulk -1", "-bulk"},
		{"-workload cluster -switches 3", "-switches"},
		{"-workload cluster -switches 2", "-reliable"},
		{"-workload cluster -signal usb", "signaling"},
		{"-workload bogus", "workload"},
		{"-platform Z80", "platform"},
		{"-iface wifi", "interface"},
		{"-protocol ccix", "protocol"},
		{"-faults nonsense", "fault"},
		{"-workload kv -dist zipf", "-dist"},
	} {
		fs := flag.NewFlagSet("ccnicsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var o options
		o.register(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		err := o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: refused: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q: accepted, want an error about %s", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %q does not mention %s", tc.args, err, tc.want)
		}
	}
}

// TestValidateResolves checks the fields validate fills in for the run.
func TestValidateResolves(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("ccnicsim", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse([]string{"-workload", "cluster", "-reliable", "-signal", "pcie", "-faults", "seed=1,portflap=0.01"}); err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if o.switches != 2 {
		t.Errorf("-reliable without -switches: got %d switches, want 2", o.switches)
	}
	if o.plan == nil {
		t.Error("fault plan not parsed")
	}
	if o.signaling != cluster.SignalPCIe {
		t.Errorf("-signal pcie resolved to %v", o.signaling)
	}
}
