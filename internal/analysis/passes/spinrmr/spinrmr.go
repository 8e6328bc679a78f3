// Package spinrmr classifies every loop whose exit depends on shared
// memory and holds each class to the paper's RMR budget. Under cache
// coherence a read-only spin on a fixed location costs O(1) RMRs: the
// first read installs a cached copy and subsequent reads are local until
// the awaited write invalidates it. A loop that performs a FAS, CAS, or
// Write on every iteration has no such bound — each round trip is a
// fresh remote reference, which is exactly the unbounded-RMR hazard the
// paper's adaptive construction exists to avoid (Sections 4.3, 5.2).
//
// The pass finds natural loops on the function's control-flow graph
// (goto-formed loops included) and computes, per loop, the set of
// variables carrying values read through a port. A loop that reads
// through a port is a *spin* when every one of its exit-governing blocks
// (if it has any) depends on port state — directly or through such a
// variable. Loops that also exit through local state (a bounded scan
// like the bakery doorway, a counted retry) are not spins and are not
// constrained here. For each spin:
//
//   - if its body performs a Write, FAS, or CAS, it must carry an
//     rme:rmw-loop(<why>) marker on the loop's line or the line above,
//     certifying a reviewed bound on its retry count;
//   - otherwise it is a cached-read spin and must contain a Port.Pause
//     backoff so the native backend yields while waiting.
//
// A loop that performs no Read, FAS, or CAS never observes shared memory,
// so the awaited write cannot end it. It is reported when its exits test
// a private copy of shared memory loaded before the loop, and none of
// the variables the loop assigns (the copy is what a crash erases, and
// the RMR accounting cannot see the wait), or when it has no exit and
// pauses: only a crash ends it.
//
// Stale rme:rmw-loop markers (attached to no RMW spin) are reported, so
// the inventory cannot rot.
//
// Applies to algorithm packages only; test files are exempt. Suppress a
// finding with rme:allow(spinrmr: <why>).
package spinrmr

import (
	"go/ast"
	"go/token"
	"go/types"

	"rme/internal/analysis"
	"rme/internal/analysis/cfg"
	"rme/internal/analysis/dataflow"
	"rme/internal/analysis/rmeutil"
)

const name = "spinrmr"

// Analyzer is the spinrmr pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "classify port-governed loops on the control-flow graph: cached-read spins\n\n" +
		"need a Port.Pause backoff, RMW retry loops need an rme:rmw-loop(<why>)\n" +
		"marker certifying a bounded retry count, loops that wait on a private copy\n" +
		"of shared memory are reported, and so are stale markers.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !rmeutil.IsAlgorithmPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if rmeutil.IsTestFile(pass.Fset, file) {
			continue
		}
		markers := rmeutil.ParseMarkers(pass.Fset, file)

		// Lines on which an RMW spin sits (marker-eligible lines), for
		// the stale-marker audit.
		rmwLoopLines := map[int]bool{}

		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, file, fn, markers, rmwLoopLines)
		}

		for _, m := range markers.All {
			if m.Kind != rmeutil.KindRMWLoop {
				continue
			}
			if !rmwLoopLines[m.Line] && !rmwLoopLines[m.Line+1] {
				pass.Reportf(m.Pos,
					"stale rme:rmw-loop marker: no RMW spin loop starts on this line or the next")
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, file *ast.File, fn *ast.FuncDecl,
	markers *rmeutil.FileMarkers, rmwLoopLines map[int]bool) {

	info := pass.TypesInfo
	g := cfg.New(fn.Body, nil)
	loaded := portTaint(info, g.Blocks)

	for _, loop := range dataflow.Loops(g) {
		// Tally the port operations of the whole loop body.
		var ops rmeutil.PortOps
		var body []*cfg.Block
		for b := range loop.Body {
			body = append(body, b)
			for _, n := range b.Nodes {
				o := rmeutil.PortOpsIn(info, n)
				ops.Reads += o.Reads
				ops.Writes += o.Writes
				ops.RMWs += o.RMWs
				ops.Pauses += o.Pauses
			}
		}
		pos := loopPos(loop)
		line := pass.Fset.Position(pos).Line
		report := func(format string, args ...interface{}) {
			if !rmeutil.Suppressed(pass, file, markers, line) {
				pass.Reportf(pos, format, args...)
			}
		}

		exits := loop.Exits()
		if ops.Reads == 0 && ops.RMWs == 0 {
			// Nothing in the loop observes shared memory, so the
			// awaited write cannot end it.
			switch {
			case len(exits) == 0 && ops.Pauses > 0:
				report("spin pauses forever without re-reading shared memory: only a crash can end it")
			case len(exits) > 0 && waitsOnCopy(info, body, exits, loaded):
				report("spin exits on a private copy of shared memory loaded before the loop: re-read it through the Port so the awaited write is seen and its RMRs are counted")
			}
			continue
		}
		taint := portTaint(info, body)
		spin := true
		for _, b := range exits {
			if !portDependent(info, b, taint) {
				spin = false
				break
			}
		}
		if !spin {
			continue // also exits through local state: a bounded scan
		}

		if ops.Writes > 0 || ops.RMWs > 0 {
			rmwLoopLines[line] = true
			if !markers.HasRMWLoop(line) {
				report("port-governed loop performs %s on every retry: unbounded RMRs unless the retry count is bounded; certify with rme:rmw-loop(<why>)",
					describeMutations(ops))
			}
		} else if ops.Pauses == 0 {
			report("cached-read spin has no Port.Pause backoff: add the step-gate hint so the native backend yields while spinning")
		}
	}
}

// portTaint computes, to a fixpoint, the variables that carry values read
// through a port in the given blocks: assigned from an expression
// containing a Port.Read/FAS/CAS or mentioning an already-tainted
// variable.
func portTaint(info *types.Info, blocks []*cfg.Block) dataflow.VarSet {
	taint := dataflow.VarSet(nil)
	for {
		changed := false
		for _, b := range blocks {
			for _, n := range b.Nodes {
				cfg.Inspect(n, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok {
						return true
					}
					fromPort := false
					for _, rhs := range as.Rhs {
						if readsPort(info, rhs) || mentions(info, rhs, taint) {
							fromPort = true
						}
					}
					if !fromPort {
						return true
					}
					for _, lhs := range as.Lhs {
						if v := asVar(info, lhs); v != nil && !taint.Has(v) {
							taint = taint.With(v)
							changed = true
						}
					}
					return true
				})
			}
		}
		if !changed {
			return taint
		}
	}
}

// waitsOnCopy reports whether the exits of a loop made of body test a
// port-loaded variable and none of the variables the loop assigns. A
// range loop advances its own iterator, so it never waits.
func waitsOnCopy(info *types.Info, body, exits []*cfg.Block, loaded dataflow.VarSet) bool {
	var assigned dataflow.VarSet
	for _, b := range body {
		for _, n := range b.Nodes {
			cfg.Inspect(n, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				}
				for _, e := range lhs {
					if v := asVar(info, e); v != nil {
						assigned = assigned.With(v)
					}
				}
				return true
			})
		}
	}
	onCopy := false
	for _, b := range exits {
		for _, n := range b.Nodes {
			if _, ranged := n.(*ast.RangeStmt); ranged || mentions(info, n, assigned) {
				return false
			}
			onCopy = onCopy || mentions(info, n, loaded)
		}
	}
	return onCopy
}

// portDependent reports whether the block's nodes read shared memory
// directly or mention a variable tainted by a port read.
func portDependent(info *types.Info, b *cfg.Block, taint dataflow.VarSet) bool {
	for _, n := range b.Nodes {
		if readsPort(info, n) || mentions(info, n, taint) {
			return true
		}
	}
	return false
}

// readsPort reports whether n contains a Port.Read, FAS, or CAS.
func readsPort(info *types.Info, n ast.Node) bool {
	ops := rmeutil.PortOpsIn(info, n)
	return ops.Reads > 0 || ops.RMWs > 0
}

// mentions reports whether n mentions a variable in vars.
func mentions(info *types.Info, n ast.Node, vars dataflow.VarSet) bool {
	if len(vars) == 0 {
		return false
	}
	found := false
	cfg.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := asVar(info, id); v != nil && vars.Has(v) {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopPos returns the position to report the loop at: its head's
// statement (the for or labeled statement) when there is one, otherwise
// the head block's first node.
func loopPos(loop *dataflow.Loop) token.Pos {
	if loop.Head.Stmt != nil {
		return loop.Head.Stmt.Pos()
	}
	return loop.Head.Pos()
}

func describeMutations(ops rmeutil.PortOps) string {
	switch {
	case ops.RMWs > 0 && ops.Writes > 0:
		return "RMW and Write operations"
	case ops.RMWs > 0:
		return "an RMW"
	default:
		return "a Write"
	}
}

// asVar resolves an identifier expression to its variable, or nil.
func asVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.ObjectOf(id).(*types.Var); ok {
		return v
	}
	return nil
}
