package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// golden.json maps each workload to the output hash recorded for each seed
// ("any" for a workload without random input). Regenerate entries with
// -record-golden, and only for an intended model change.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string]string

// gate is the correctness gate of one run: every repetition's simulated
// output must hash to the value recorded for the seed. For a seeded
// workload on a seed with no recorded hash, the repetitions of the run must
// agree with each other instead.
type gate struct {
	want string // recorded hash ("" when this seed has none)
	hash string // hash of the first checked output
}

func goldenKey(w *workload, seed int64) string {
	if !w.seeded {
		return "any"
	}
	return strconv.FormatInt(seed, 10)
}

func newGate(w *workload, seed int64) (*gate, error) {
	var golden goldenFile
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	want := golden[w.name][goldenKey(w, seed)]
	if want == "" {
		if !w.seeded {
			return nil, fmt.Errorf("golden.json has no output hash for %s", w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d has no recorded output hash; repetitions are checked against each other\n", w.name, seed)
	}
	return &gate{want: want}, nil
}

func (g *gate) check(o outcome) error {
	h := o.hash()
	if g.want != "" && h != g.want {
		return fmt.Errorf("output hash %s, recorded %s; output:\n%s", h, g.want, o.fingerprint)
	}
	if g.hash == "" {
		g.hash = h
	} else if h != g.hash {
		return fmt.Errorf("output hash %s differs from this run's first repetition %s: nondeterministic", h, g.hash)
	}
	return nil
}

// goldenSeeds is the number of seeds golden.json records for a seeded
// workload: seeds 0 to goldenSeeds-1.
const goldenSeeds = 100

// recordGolden runs one repetition per recorded seed (one in all for a
// workload without random input) and merges the output hashes into the
// golden file at path.
func recordGolden(w *workload, path string) error {
	n := int64(goldenSeeds)
	if !w.seeded {
		n = 1
	}
	golden := goldenFile{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &golden); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if golden[w.name] == nil {
		golden[w.name] = map[string]string{}
	}
	for seed := int64(0); seed < n; seed++ {
		g := &gate{}
		r := runRep(w, seed, w.workers, g, nil, nil)
		if r.err != nil {
			return fmt.Errorf("%s seed %d: %w", w.name, seed, r.err)
		}
		golden[w.name][goldenKey(w, seed)] = g.hash
		fmt.Fprintf(os.Stderr, "%s seed %d: %s (%d %s)\n", w.name, seed, g.hash, r.out.work, w.unit)
	}
	buf, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
