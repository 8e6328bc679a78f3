// Command rmesweep runs the deterministic crash-placement sweep: a first
// instrumented pass records every process's instruction stream, then one
// run per enumerated placement — every (pid, instruction-index) boundary up
// to a horizon, the rendezvous immediately after each RMW (the sensitive
// window of Definition 3.3/3.4), and optionally pairs of after-RMW crashes
// for the F ≥ 2 escalation paths — re-executes the workload with exactly
// that crash set and re-checks the paper's properties. With -aborts it
// also sweeps abort placements: an abort delivery at every boundary, an
// abort after each RMW, and abort×crash pairs that crash the process while
// it is running the back-out protocol itself.
//
// The sweep is the mechanical proof-obligation runner for each recoverable
// layer: where cmd/soak samples adversaries from a seed, rmesweep visits
// every single-crash placement exhaustively. Violations are shrunk and
// written as repro artifacts that cmd/rmesim -repro replays bit-exactly.
//
// Without -locks it sweeps every recoverable lock in the registry
// (non-recoverable ablation baselines are skipped).
//
// Usage:
//
//	rmesweep -locks wr,sa,ba-log -n 4 -model both -requests 2 -pairs -aborts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/repro"
	"rme/internal/sim"
	"rme/internal/workload"
)

func main() {
	var (
		locks         = flag.String("locks", "", "comma-separated locks to sweep (default every registry lock; see rmesim -list)")
		n             = flag.Int("n", 4, "number of processes")
		model         = flag.String("model", "both", "memory model: cc, dsm or both")
		requests      = flag.Int("requests", 2, "satisfied requests per process")
		seed          = flag.Int64("seed", 1, "scheduler seed for every placement run")
		csops         = flag.Int("csops", 2, "critical-section length in instructions")
		horizon       = flag.Int64("horizon", 0, "per-process instruction horizon for boundary placements (0 = full stream)")
		pairs         = flag.Bool("pairs", false, "add two-crash placements for the F≥2 escalation paths")
		maxPairs      = flag.Int("maxpairs", 64, "cap on two-crash placements")
		aborts        = flag.Bool("aborts", false, "add abort placements (every boundary, after each RMW, abort×crash pairs)")
		maxAbortPairs = flag.Int("maxabortpairs", 64, "cap on abort×crash pair placements")
		out           = flag.String("out", ".", "directory for shrunk repro artifacts")
		verbose       = flag.Bool("v", false, "print per-placement progress")
	)
	flag.Parse()

	var models []memory.Model
	switch strings.ToLower(*model) {
	case "cc":
		models = []memory.Model{memory.CC}
	case "dsm":
		models = []memory.Model{memory.DSM}
	case "both":
		models = []memory.Model{memory.CC, memory.DSM}
	default:
		fatal(fmt.Errorf("unknown model %q (want cc, dsm or both)", *model))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	names := workload.Names()
	if *locks != "" {
		names = strings.Split(*locks, ",")
	}
	totalPlacements, totalViolations := 0, 0
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := workload.Lookup(name)
		if err != nil {
			fatal(err)
		}
		if spec.Strength == workload.NonRecoverable {
			fmt.Printf("%-10s skipped (non-recoverable ablation baseline)\n", name)
			continue
		}
		for _, mdl := range models {
			placements, violations, err := sweepOne(spec, mdl, sweepOpts{
				n: *n, requests: *requests, seed: *seed, csops: *csops,
				horizon: *horizon, pairs: *pairs, maxPairs: *maxPairs,
				aborts: *aborts, maxAbortPairs: *maxAbortPairs,
				outDir: *out, verbose: *verbose,
			})
			if err != nil {
				fatal(err)
			}
			totalPlacements += placements
			totalViolations += violations
		}
	}
	fmt.Printf("rmesweep: %d placements, %d violations\n", totalPlacements, totalViolations)
	if totalViolations > 0 {
		os.Exit(1)
	}
}

type sweepOpts struct {
	n, requests, csops int
	seed               int64
	horizon            int64
	pairs              bool
	maxPairs           int
	aborts             bool
	maxAbortPairs      int
	outDir             string
	verbose            bool
}

func sweepOne(spec workload.Spec, mdl memory.Model, o sweepOpts) (placements, violations int, err error) {
	aborts := o.aborts
	if aborts {
		// Abort placements only make sense for locks implementing the
		// back-out protocol; the runner would ignore them anyway, so skip
		// the redundant placements up front.
		probe := spec.New(memory.NewArena(mdl, o.n), o.n)
		if _, ok := probe.(sim.Aborter); !ok {
			fmt.Printf("%-10s %v: abort placements skipped (lock is not abortable)\n", spec.Name, mdl)
			aborts = false
		}
	}
	sc := sim.SweepConfig{
		Config: sim.Config{N: o.n, Model: mdl, Requests: o.requests,
			Seed: o.seed, CSOps: o.csops, MaxSteps: 10_000_000},
		Horizon:       o.horizon,
		Pairs:         o.pairs,
		MaxPairs:      o.maxPairs,
		Aborts:        aborts,
		MaxAbortPairs: o.maxAbortPairs,
	}
	plan, err := sim.PlanSweep(sc, spec.New)
	if err != nil {
		return 0, 0, fmt.Errorf("%s/%v: %w", spec.Name, mdl, err)
	}
	for i, pl := range plan.Placements {
		res, runErr := plan.Run(i, spec.New)
		var cerr error
		if runErr != nil {
			cerr = &check.Violation{Property: check.PropStarvation, Err: runErr}
		} else {
			cerr = spec.Check(res)
		}
		if o.verbose {
			fmt.Printf("  %s/%v %-40s %s\n", spec.Name, mdl, pl, verdict(cerr))
		}
		if cerr == nil {
			continue
		}
		violations++
		fmt.Printf("FAIL %s/%v %s: %v\n", spec.Name, mdl, pl, cerr)
		if path, rerr := record(spec, mdl, sc, pl, i, cerr, o.outDir); rerr != nil {
			fmt.Printf("  repro: %v\n", rerr)
		} else {
			fmt.Printf("  repro written to %s\n", path)
		}
	}
	nAborts := 0
	for _, pl := range plan.Placements {
		if pl.HasAborts() {
			nAborts++
		}
	}
	fmt.Printf("%-10s %v: %d placements (%d abort, %d instructions traced), %d violations\n",
		spec.Name, mdl, len(plan.Placements), nAborts, traced(plan), violations)
	return len(plan.Placements), violations, nil
}

func traced(plan *sim.SweepPlan) int {
	total := 0
	for _, s := range plan.Streams {
		total += len(s)
	}
	return total
}

func record(spec workload.Spec, mdl memory.Model, sc sim.SweepConfig, pl sim.Placement, idx int, observed error, outDir string) (string, error) {
	cfg := sc.Config
	if pl.HasAborts() {
		cfg.Plan = &sim.FaultSet{
			Crashes: sim.CrashSet{Points: append([]sim.CrashPoint{}, pl.Points...)},
			Aborts:  sim.AbortSet{Points: append([]sim.CrashPoint{}, pl.Aborts...)},
		}
	} else {
		cfg.Plan = &sim.CrashSet{Points: append([]sim.CrashPoint{}, pl.Points...)}
	}
	note := fmt.Sprintf("rmesweep %s/%v placement %d (%s): %v", spec.Name, mdl, idx, pl, observed)
	art, _, err := repro.Record(spec.RunSpec(cfg, note), spec.New)
	if err != nil {
		return "", err
	}
	if art.Property == "" {
		return "", fmt.Errorf("placement did not reproduce under the recording scheduler")
	}
	art = repro.Shrink(art, spec.New)
	path := filepath.Join(outDir, fmt.Sprintf("repro-sweep-%s-%v-p%d.json", spec.Name, mdl, idx))
	if err := art.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

func verdict(err error) string {
	if err != nil {
		return "VIOLATED — " + err.Error()
	}
	return "ok"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rmesweep: %v\n", err)
	os.Exit(1)
}
