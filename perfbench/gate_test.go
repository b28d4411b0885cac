package main

import (
	"encoding/json"
	"strconv"
	"testing"
)

// TestGoldenCoversWorkloads checks golden.json records a hash for every
// workload: "any" for one without random input, seeds 0 to goldenSeeds-1 otherwise.
func TestGoldenCoversWorkloads(t *testing.T) {
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !w.seeded {
			if golden[w.name]["any"] == "" {
				t.Errorf("%s: no recorded hash", w.name)
			}
			continue
		}
		for seed := 0; seed < goldenSeeds; seed++ {
			if golden[w.name][strconv.Itoa(seed)] == "" {
				t.Errorf("%s: no recorded hash for seed %d", w.name, seed)
			}
		}
	}
}

func TestGateRefusesChangedOutput(t *testing.T) {
	g := &gate{want: outcome{fingerprint: "a"}.hash()}
	if err := g.check(outcome{fingerprint: "a"}); err != nil {
		t.Fatalf("recorded output refused: %v", err)
	}
	if err := g.check(outcome{fingerprint: "b"}); err == nil {
		t.Fatal("changed output accepted")
	}
	unrecorded := &gate{}
	if err := unrecorded.check(outcome{fingerprint: "a"}); err != nil {
		t.Fatalf("first output refused: %v", err)
	}
	if err := unrecorded.check(outcome{fingerprint: "b"}); err == nil {
		t.Fatal("nondeterministic output accepted")
	}
}
