package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Yieldlint flags calls to (transitively) yielding functions inside
// //ccnic:atomic regions. The simulation kernel interleaves processes only
// at yield points (Proc.Sleep/Wait/Yield and everything built on them, like
// coherence.Agent's charge methods), so shared model structures must be
// consistent whenever a yielding call executes. A region annotated
// //ccnic:atomic asserts "no interleaving happens here": typically the span
// between popping a resource off a free structure and marking it owned.
//
// This is the static form of the conservation bug PR 2's runtime engine
// caught in bufpool: the recycle fast path yielded (via Agent.Exec) between
// the stack pop and the take() transition, leaving a buffer unowned and
// unlisted mid-yield. With the pop-to-take span annotated, that defect is a
// compile-time diagnostic instead of a throttled runtime scan's finding.
//
// Yieldlint also checks Proc.SleepWhile steps. A step runs on the
// scheduler, on another coroutine's stack, so a yield inside it would park
// the wrong coroutine (the kernel panics if one does). Every function
// passed as a step — a function literal, a function or method value, or a
// local variable assigned one of those in the same function — must not
// reach a yielding call.
var Yieldlint = &Analyzer{
	Name: "yieldlint",
	Doc:  "flag yielding calls inside //ccnic:atomic critical regions and SleepWhile steps",
	Run:  runYieldlint,
}

// stepRoots are the kernel functions whose function-typed arguments run on
// the scheduler as steps. Functions annotated //ccnic:steps join them.
var stepRoots = map[string]bool{
	"(*ccnic/internal/sim.Proc).SleepWhile": true,
}

func runYieldlint(pass *Pass) error {
	yields := pass.Prog.YieldSet()
	steps := &stepCheck{pass: pass, yields: yields, reported: map[token.Pos]bool{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			regions := pass.Prog.AtomicRegions(pass.Pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				if pass.Prog.takesSteps(callee) {
					for _, arg := range call.Args {
						if t := pass.TypesInfo.TypeOf(arg); t != nil {
							if _, ok := t.Underlying().(*types.Signature); ok {
								steps.seen = map[*types.Var]bool{}
								steps.check(fd.Body, arg)
							}
						}
					}
				}
				if !yields[callee] {
					return true
				}
				for _, r := range regions {
					if r.contains(call.Pos()) {
						pass.Report(call.Pos(), "call to yielding function %s inside //ccnic:atomic region (%s): the structure is inconsistent at this yield point", callee.Name(), pass.Prog.YieldChain(callee))
						break
					}
				}
				return true
			})
		}
	}
	return nil
}

// takesSteps reports whether fn runs its function-typed arguments as
// scheduler steps: a step root, or annotated //ccnic:steps.
func (pr *Program) takesSteps(fn *types.Func) bool {
	if stepRoots[fn.FullName()] {
		return true
	}
	fd := pr.DeclOf(fn)
	if fd == nil || fn.Pkg() == nil {
		return false
	}
	pkg := pr.PackageOf(fn.Pkg().Path())
	return pkg != nil && pr.FuncAnnotated(pkg, fd, AnnotSteps)
}

// stepCheck reports the yields reachable from the functions passed as
// scheduler steps. reported deduplicates findings when one step value is
// passed more than once; seen stops the walk through local variables from
// cycling.
type stepCheck struct {
	pass     *Pass
	yields   map[*types.Func]bool
	reported map[token.Pos]bool
	seen     map[*types.Var]bool
}

func (c *stepCheck) report(pos token.Pos, format string, fn *types.Func) {
	if !c.reported[pos] {
		c.reported[pos] = true
		c.pass.Report(pos, format, fn.Name(), c.pass.Prog.YieldChain(fn))
	}
}

// check inspects step, an argument passed as a scheduler step inside body.
// A local variable is followed to the values body assigns it.
func (c *stepCheck) check(body *ast.BlockStmt, step ast.Expr) {
	info := c.pass.TypesInfo
	switch e := ast.Unparen(step).(type) {
	case *ast.FuncLit:
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeOf(info, call); fn != nil && c.yields[fn] {
					c.report(call.Pos(), "call to yielding function %s inside a SleepWhile step (%s): a step runs on the scheduler and must not yield", fn)
				}
			}
			return true
		})
	case *ast.Ident, *ast.SelectorExpr:
		id, ok := e.(*ast.Ident)
		if !ok {
			id = e.(*ast.SelectorExpr).Sel
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if fn := obj.Origin(); c.yields[fn] {
				c.report(step.Pos(), "SleepWhile step %s yields (%s): a step runs on the scheduler and must not yield", fn)
			}
		case *types.Var:
			if c.seen[obj] {
				return
			}
			c.seen[obj] = true
			for _, v := range assignedValues(info, body, obj) {
				c.check(body, v)
			}
		}
	}
}

// assignedValues returns every expression body assigns to v, by := / = or a
// var declaration.
func assignedValues(info *types.Info, body *ast.BlockStmt, v *types.Var) []ast.Expr {
	var vals []ast.Expr
	is := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && (info.Defs[id] == v || info.Uses[id] == v)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					if is(lhs) {
						vals = append(vals, s.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i, name := range s.Names {
					if is(name) {
						vals = append(vals, s.Values[i])
					}
				}
			}
		}
		return true
	})
	return vals
}
