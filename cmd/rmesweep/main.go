// Command rmesweep runs the adversary campaigns. Every mode drives locks
// under an adversary, re-checks the paper's properties, and writes each
// violation as a shrunk repro artifact that cmd/rmesim -repro replays
// bit-exactly.
//
// Without -random it runs the deterministic crash-placement sweep: a first
// instrumented pass records every process's instruction stream, then one
// run per enumerated placement — every (pid, instruction-index) boundary up
// to a horizon, the rendezvous immediately after each RMW (the sensitive
// window of Definition 3.3/3.4), and optionally every pair of after-RMW
// crashes for the F ≥ 2 escalation paths — re-executes the workload with
// exactly that crash set. With -aborts it also sweeps abort placements: an
// abort delivery at every boundary, an abort after each RMW, and, after
// each RMW, abort×crash pairs that crash the process while it is running
// the back-out protocol itself; with -pairs too, crash×abort pairs crash
// the process right after each RMW and abort its restarted passage. The
// sweep is the mechanical proof-obligation runner for each recoverable
// layer: it visits every single-crash placement exhaustively.
//
// With -random N it samples adversaries from seeds [0, N) instead: the
// lockstep campaign of internal/regime runs every lock under both memory
// models with combined random, unsafe and abort failures, and writes a
// flight-recorder post-mortem beside each repro. -timeout arms a
// wall-clock watchdog over the whole campaign: if it has not finished in
// time (a livelocked lock, a starved scheduler), the watchdog writes a
// post-mortem of the run in progress, renderable with cmd/rmetrace.
//
// With -random N -des it soaks the virtual-time discrete-event simulator
// (internal/des): the two shipped locks under crash storms, uniform
// crash schedules and Zipf-keyed bursty traffic, plus a
// determinism probe per lock. A violation writes a flight post-mortem and
// a des-repro config JSON; the simulation is deterministic, so re-running
// the config reproduces the violation exactly.
//
// -locks selects the locks of the sweep and of the lockstep campaign
// (default every registry lock; non-recoverable ablation baselines are
// skipped). -n, -requests and -out apply to every mode.
//
// Usage:
//
//	rmesweep -locks wr,sa,ba-log -n 4 -model both -requests 2 -pairs -aborts
//	rmesweep -random 400 -n 6 -requests 3 -timeout 10m -out repros
//	rmesweep -random 200 -des -n 8 -requests 20 -out des-artifacts
//
// The exit status is 0 when clean, 1 on a violation, 2 on bad flags or a
// failed setup, and 3 when the watchdog fires.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/regime"
	"rme/internal/repro"
	"rme/internal/sim"
	"rme/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the selected mode and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmesweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		locks    = fs.String("locks", "", "comma-separated locks to sweep or soak (default every registry lock; see rmesim -list)")
		n        = fs.Int("n", 4, "number of processes")
		requests = fs.Int("requests", 2, "satisfied requests per process")
		out      = fs.String("out", ".", "directory for repro artifacts and flight post-mortems")
		random   = fs.Int("random", 0, "sample adversaries from seeds [0, N) instead of sweeping placements (0 = sweep)")
		desMode  = fs.Bool("des", false, "with -random: soak the virtual-time discrete-event simulator instead of the lockstep campaign")
		timeout  = fs.Duration("timeout", 0, "with -random: wall-clock watchdog for the lockstep campaign (0 = off)")
		model    = fs.String("model", "both", "sweep memory model: cc, dsm or both")
		seed     = fs.Int64("seed", 1, "scheduler seed for every placement run")
		csops    = fs.Int("csops", 2, "critical-section length in instructions of a placement run")
		horizon  = fs.Int64("horizon", 0, "per-process instruction horizon for boundary placements (0 = full stream)")
		pairs    = fs.Bool("pairs", false, "add a two-crash placement for every pair of after-RMW points (the F≥2 escalation paths)")
		aborts   = fs.Bool("aborts", false, "add abort placements (every boundary, after each RMW, abort×crash pairs; with -pairs, crash×abort pairs)")
		verbose  = fs.Bool("v", false, "print per-placement progress")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rmesweep: "+format+"\n", args...)
		return 2
	}
	switch {
	case *n < 1:
		return fail("-n %d: need at least one process", *n)
	case *requests < 1:
		return fail("-requests %d: need at least one request", *requests)
	case *random < 0:
		return fail("-random %d: need a seed count ≥ 0", *random)
	case *desMode && *random == 0:
		return fail("-des needs -random N > 0")
	}
	var models []memory.Model
	switch strings.ToLower(*model) {
	case "cc":
		models = []memory.Model{memory.CC}
	case "dsm":
		models = []memory.Model{memory.DSM}
	case "both":
		models = []memory.Model{memory.CC, memory.DSM}
	default:
		return fail("unknown model %q (want cc, dsm or both)", *model)
	}
	specs, err := lookup(*locks)
	if err != nil {
		return fail("%v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail("%v", err)
	}

	switch {
	case *desMode:
		dc := &desCampaign{seeds: *random, n: *n, requests: *requests, outDir: *out, stdout: stdout}
		_, failures := dc.run()
		return status(failures)
	case *random > 0:
		c := &regime.Campaign{Seeds: *random, N: *n, Requests: *requests,
			OutDir: *out, Specs: specs, Stdout: stdout}
		return soak(c, *timeout, stderr)
	}
	violations, err := sweep(specs, models, sweepOpts{
		n: *n, requests: *requests, seed: *seed, csops: *csops,
		horizon: *horizon, pairs: *pairs, aborts: *aborts,
		outDir: *out, verbose: *verbose, stdout: stdout,
	})
	if err != nil {
		return fail("%v", err)
	}
	return status(violations)
}

// status maps a violation count to the exit status.
func status(violations int) int {
	if violations > 0 {
		return 1
	}
	return 0
}

// lookup resolves the comma-separated -locks list; empty selects every
// registry lock.
func lookup(locks string) ([]workload.Spec, error) {
	names := workload.Names()
	if locks != "" {
		names = strings.Split(locks, ",")
	}
	var specs []workload.Spec
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// soak runs the lockstep campaign, under the watchdog when timeout > 0.
// A timed-out campaign is wedged, so soak returns without waiting for it;
// main's exit ends it.
func soak(c *regime.Campaign, timeout time.Duration, stderr io.Writer) int {
	if timeout <= 0 {
		_, failures := c.Run()
		return status(failures)
	}
	c.Watch = &regime.Watchdog{}
	done := make(chan int, 1)
	go func() {
		_, failures := c.Run()
		done <- failures
	}()
	select {
	case failures := <-done:
		return status(failures)
	case <-time.After(timeout):
		path, desc, err := c.Watch.PostMortem(c.OutDir)
		if err != nil {
			fmt.Fprintf(stderr, "rmesweep: watchdog timeout after %v during %s; post-mortem failed: %v\n",
				timeout, desc, err)
		} else {
			fmt.Fprintf(stderr, "rmesweep: watchdog timeout after %v during %s; post-mortem → %s (render: rmetrace -timeline %s)\n",
				timeout, desc, path, path)
		}
		return 3
	}
}

type sweepOpts struct {
	n, requests, csops int
	seed               int64
	horizon            int64
	pairs, aborts      bool
	outDir             string
	verbose            bool
	stdout             io.Writer
}

// sweep runs the placement sweep of every recoverable spec under every
// model and returns the number of violations.
func sweep(specs []workload.Spec, models []memory.Model, o sweepOpts) (int, error) {
	totalPlacements, totalViolations := 0, 0
	for _, spec := range specs {
		if spec.Strength == workload.NonRecoverable {
			fmt.Fprintf(o.stdout, "%-10s skipped (non-recoverable ablation baseline)\n", spec.Name)
			continue
		}
		for _, mdl := range models {
			placements, violations, err := sweepOne(spec, mdl, o)
			if err != nil {
				return 0, err
			}
			totalPlacements += placements
			totalViolations += violations
		}
	}
	fmt.Fprintf(o.stdout, "rmesweep: %d placements, %d violations\n", totalPlacements, totalViolations)
	return totalViolations, nil
}

func sweepOne(spec workload.Spec, mdl memory.Model, o sweepOpts) (placements, violations int, err error) {
	aborts := o.aborts
	if aborts {
		// Abort placements only make sense for locks implementing the
		// back-out protocol; the runner would ignore them anyway, so skip
		// the redundant placements up front.
		probe := spec.New(memory.NewArena(mdl, o.n), o.n)
		if _, ok := probe.(sim.Aborter); !ok {
			fmt.Fprintf(o.stdout, "%-10s %v: abort placements skipped (lock is not abortable)\n", spec.Name, mdl)
			aborts = false
		}
	}
	sc := sim.SweepConfig{
		Config: sim.Config{N: o.n, Model: mdl, Requests: o.requests,
			Seed: o.seed, CSOps: o.csops, MaxSteps: 10_000_000},
		Horizon: o.horizon,
		Pairs:   o.pairs,
		Aborts:  aborts,
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
			fmt.Fprintf(o.stdout, "  %s/%v %-40s %s\n", spec.Name, mdl, pl, verdict(cerr))
		}
		if cerr == nil {
			continue
		}
		violations++
		fmt.Fprintf(o.stdout, "FAIL %s/%v %s: %v\n", spec.Name, mdl, pl, cerr)
		if path, rerr := record(spec, mdl, sc, pl, i, cerr, o.outDir); rerr != nil {
			fmt.Fprintf(o.stdout, "  repro: %v\n", rerr)
		} else {
			fmt.Fprintf(o.stdout, "  repro written to %s\n", path)
		}
	}
	nAborts := 0
	for _, pl := range plan.Placements {
		if pl.HasAborts() {
			nAborts++
		}
	}
	pairs := ""
	if o.pairs {
		pairs = fmt.Sprintf(", %d crash pairs", plan.CrashPairs)
	}
	fmt.Fprintf(o.stdout, "%-10s %v: %d placements (%d abort, %d instructions traced%s), %d violations\n",
		spec.Name, mdl, len(plan.Placements), nAborts, traced(plan), pairs, violations)
	return len(plan.Placements), violations, nil
}

func traced(plan *sim.SweepPlan) int {
	total := 0
	for _, s := range plan.Streams {
		total += len(s)
	}
	return total
}

// record writes the violating placement's shrunk repro artifact.
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
	path := filepath.Join(outDir, fmt.Sprintf("repro-sweep-%s-%v-p%d.json", spec.Name, mdl, idx))
	return path, repro.Capture(spec.RunSpec(cfg, note), spec.New, path)
}

func verdict(err error) string {
	if err != nil {
		return "VIOLATED — " + err.Error()
	}
	return "ok"
}
