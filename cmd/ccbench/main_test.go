package main

import (
	"reflect"
	"testing"

	"ccnic"
)

// TestOffDefault pins the flags that golden and hash runs refuse: each
// model-perturbing flag on its own, all of them together, and none at the
// defaults.
func TestOffDefault(t *testing.T) {
	plan, err := ccnic.ParseFaultPlan("seed=7,dbdrop=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		plan  *ccnic.FaultPlan
		proto ccnic.Protocol
		ports int
		want  []string
	}{
		{nil, ccnic.ProtoUPI, 0, nil},
		{plan, ccnic.ProtoUPI, 0, []string{"-faults"}},
		{nil, ccnic.ProtoCXL, 0, []string{"-protocol"}},
		{nil, ccnic.ProtoUPI, 16, []string{"-ports"}},
		{plan, ccnic.ProtoCXL, 4, []string{"-faults", "-protocol", "-ports"}},
	} {
		if got := offDefault(tc.plan, tc.proto, tc.ports); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("offDefault(%v, %v, %d) = %v, want %v", tc.plan, tc.proto, tc.ports, got, tc.want)
		}
	}
}
