// Package portdiscipline enforces the first invariant of the repository's
// shared-memory discipline: in algorithm packages, all shared state lives
// in the word arena and is touched only through memory.Port.
//
// Concretely, inside the algorithm packages it forbids
//
//   - importing sync, sync/atomic, unsafe, runtime or time — Go-level
//     concurrency, memory and clock primitives all bypass the arena and
//     its RMR accounting — or rme/internal/flight, so that recording
//     cannot add instructions to the crash window after a sensitive FAS
//     (Definition 3.3);
//   - package-level mutable state (any non-blank package-level var):
//     such state neither survives a simulated crash nor is visible to
//     the RMR models;
//   - goroutines, channels and select: process interleaving is the
//     scheduler's job, and cross-process communication must go through
//     shared words so it is charged RMRs.
//
// Test files are exempt; they are harness, not algorithm, code.
package portdiscipline

import (
	"go/ast"

	"rme/internal/analysis"
	"rme/internal/analysis/rmeutil"
)

const name = "portdiscipline"

// Analyzer is the portdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "enforce that algorithm packages touch shared state only through memory.Port\n\n" +
		"Forbids sync/sync⁄atomic/unsafe/runtime/time/flight imports, package-level mutable state,\n" +
		"goroutines, channels and select in lock algorithm packages.",
	Run: run,
}

var bannedImports = map[string]string{
	"sync":                "Go-level locking bypasses the word arena and its RMR accounting",
	"sync/atomic":         "atomics bypass memory.Port; shared words must be touched through the Port",
	"unsafe":              "unsafe defeats the arena's crash and accounting model",
	"runtime":             "scheduling belongs to the simulator/native backends, not algorithm code",
	"time":                "algorithm code must not depend on wall-clock state that vanishes on crash",
	"rme/internal/flight": "recording reaches algorithm code only through core.PhaseHook and Port.Label; a direct call could widen a sensitive FAS's crash window",
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
		report := func(pos ast.Node, format string, args ...interface{}) {
			line := pass.Fset.Position(pos.Pos()).Line
			if rmeutil.Suppressed(pass, file, markers, line) {
				return
			}
			pass.Reportf(pos.Pos(), format, args...)
		}

		for _, imp := range file.Imports {
			path := importPath(imp)
			if why, banned := bannedImports[path]; banned {
				report(imp, "algorithm package imports %q: %s", path, why)
			}
		}

		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok.String() != "var" {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // interface assertions are compile-time only
					}
					report(name, "package-level mutable state %q: persistent state must live in the word arena, reached through memory.Port", name.Name)
				}
			}
		}

		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// Package-level var initializers were handled above;
				// inspect function bodies for statement-level escapes.
				return true
			case *ast.GoStmt:
				report(n, "goroutine in algorithm code: interleaving is the scheduler's job; processes share only arena words")
			case *ast.SelectStmt:
				report(n, "select in algorithm code: cross-process signalling must go through shared words so it is charged RMRs")
			case *ast.SendStmt:
				report(n, "channel send in algorithm code: communication must go through memory.Port")
			case *ast.ChanType:
				report(n, "channel type in algorithm code: communication must go through memory.Port")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					report(n, "channel receive in algorithm code: communication must go through memory.Port")
				}
			}
			return true
		})
	}
	return nil
}

func importPath(s *ast.ImportSpec) string {
	p := s.Path.Value
	if len(p) >= 2 {
		return p[1 : len(p)-1]
	}
	return p
}
