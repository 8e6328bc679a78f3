// Command rmevet mechanically enforces the shared-memory discipline the
// RME algorithms (Dhoked & Mittal, PODC 2020) depend on, one analyzer per
// invariant:
//
//   - portdiscipline: algorithm packages touch shared memory only
//     through memory.Port — no sync/atomic, unsafe, goroutines,
//     channels, or package-level mutable state — and never import the
//     flight recorder, so recording cannot widen the crash window
//     (Definition 3.3);
//   - sensitive: every FAS/CAS carries an rme:sensitive or
//     rme:nonsensitive(<why>) marker, and each file's
//     rme:sensitive-instructions inventory matches (WR-Lock: exactly
//     one, the FAS on tail — Definition 3.3);
//   - persistfield: persistent-state structs hold memory.Addr words,
//     never raw Go pointers, maps, or channels that vanish on crash;
//   - persistorder: on every control-flow path, a sensitive RMW's result
//     reaches a persisting Port.Write before any return or further
//     sensitive instruction (backward must-analysis over the CFG);
//   - portescape: port handles stay passage-local — never stored in
//     globals or heap-reachable memory, sent on channels, or captured by
//     returned closures (forward taint analysis over the CFG);
//   - spinrmr: every port-governed spin loop either re-reads cheaply
//     (cached read + Pause) or carries an rme:rmw-loop(<why>) marker
//     certifying its per-retry RMW/Write cost is bounded, and no loop
//     waits on a private copy of shared memory.
//
// The driver additionally audits rme:allow markers: one that suppresses
// no diagnostic is itself reported (as "allowaudit"), so waivers cannot
// outlive the findings they waived.
//
// Run it standalone:
//
//	go run rme/cmd/rmevet ./...
//	go run rme/cmd/rmevet -sarif ./... > rmevet.sarif
//
// or as a vet tool:
//
//	go build -o rmevet rme/cmd/rmevet
//	go vet -vettool=./rmevet ./...
package main

import (
	"rme/internal/analysis"
	"rme/internal/analysis/driver"
	"rme/internal/analysis/passes/persistfield"
	"rme/internal/analysis/passes/persistorder"
	"rme/internal/analysis/passes/portdiscipline"
	"rme/internal/analysis/passes/portescape"
	"rme/internal/analysis/passes/sensitive"
	"rme/internal/analysis/passes/spinrmr"
)

// suite is the full analyzer set, in reporting order: the syntactic
// passes first, then the three flow-sensitive passes built on the
// CFG + dataflow engine.
var suite = []*analysis.Analyzer{
	portdiscipline.Analyzer,
	sensitive.Analyzer,
	persistfield.Analyzer,
	persistorder.Analyzer,
	portescape.Analyzer,
	spinrmr.Analyzer,
}

func main() {
	driver.Main("rmevet", suite...)
}
