// Package lint is a static-analysis suite that enforces the simulator's
// invariants at compile time, complementing the runtime invariant engine in
// internal/check (DESIGN.md §5):
//
//   - detlint: forbids nondeterminism sources (wall-clock time, the global
//     math/rand stream, goroutine spawning outside internal/sim, and
//     map-range iteration feeding ordered state or output) in non-test
//     simulator code.
//   - yieldlint: computes the transitive set of yielding functions from the
//     kernel's blocking primitives and flags yielding calls inside regions
//     annotated //ccnic:atomic — the statically-detectable shape of the
//     bufpool conservation bug the runtime engine caught in PR 2 — and
//     inside functions passed as sim.Proc.SleepWhile steps, which run on
//     the scheduler.
//   - probelint: requires every call through a Probe-typed validation hook
//     to be nil-guarded, keeping the checks-disabled path a single branch.
//   - alloclint: checks functions annotated //ccnic:noalloc (the paths the
//     AllocsPerRun tests guard) for heap-allocating constructs.
//   - shardlint: confines cross-shard sends (shard.Link.Send) and link
//     declarations (shard.Engine.Connect) to the shard runtime and the
//     topology-composition packages, keeping the parallel engine's
//     lookahead contract auditable at compile time.
//   - ownlint: a flow-sensitive linear-ownership check for bufpool buffers —
//     acquired buffers released or transferred exactly once on every path,
//     no use after release, no raw (unaccounted) buffer held across a yield.
//   - timelint: the sim.Time discipline — no wall-clock mixing outside
//     internal/platform, no bare-literal durations, no stale-timestamp
//     equality across yields.
//   - exhaustlint: switches over model enum types must cover every constant
//     or justify their default clause.
//
// ownlint, timelint, and alloclint's capture check are built on the
// dataflow engine in internal/lint/flow: per-function CFGs, a generic
// forward/backward worklist solver, and escape facts for function literals.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) but is self-contained: the environment this
// repository builds in has no module proxy access, so the suite runs on the
// standard library alone, loading packages via `go list` and type-checking
// them from source (see load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. The returned error aborts the whole lint run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package, mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program // the whole loaded program, for cross-package analyses
	Pkg      *Package // the package under analysis

	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Report records a finding at the given position.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its resolved file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detlint, Yieldlint, Probelint, Alloclint, Shardlint, Ownlint, Timelint, Exhaustlint}
}

// Run applies the analyzers to every package of prog and returns the
// findings sorted by file position.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{
				Analyzer:  a,
				Prog:      prog,
				Pkg:       pkg,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
