// Command rmesim runs one configurable simulation of a recoverable lock on
// the RMR-exact shared-memory simulator and reports statistics and
// property-check results.
//
// Usage:
//
//	rmesim -lock ba-log -n 16 -model cc -requests 5 -unsafe 4 -v
//
// Abortable locks additionally accept abort injection: -aborts N delivers
// up to N aborts at random instruction boundaries, and -abortat places
// deterministic deliveries at exact (pid, instruction-index) boundaries:
//
//	rmesim -lock ba-log -aborts 3
//	rmesim -lock wr -abortat 1@14,2@20
//
// The available locks are listed with -list.
//
// With -repro, rmesim instead replays a recorded violation artifact
// (written by cmd/rmesweep) bit-exactly through the serialized
// scheduler and re-derives the check verdict:
//
//	rmesim -repro repro-wr-CC-seed17.json [-timeline]
//
// It exits 0 when the replay reproduces the artifact's recorded property
// violation and 1 when the verdict diverges (the bug no longer reproduces,
// or a different property fails).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/repro"
	"rme/internal/sim"
	"rme/internal/trace"
	"rme/internal/workload"
)

func main() {
	var (
		lock     = flag.String("lock", "ba-log", "lock to simulate (see -list)")
		n        = flag.Int("n", 8, "number of processes")
		model    = flag.String("model", "cc", "memory model: cc or dsm")
		requests = flag.Int("requests", 5, "satisfied requests per process")
		seed     = flag.Int64("seed", 1, "scheduler seed")
		failures = flag.Int("failures", 0, "random failures to inject at instruction boundaries")
		unsafe   = flag.Int("unsafe", 0, "unsafe failures to inject immediately after sensitive FAS instructions")
		aborts   = flag.Int("aborts", 0, "random abort deliveries to inject at instruction boundaries")
		abortAt  = flag.String("abortat", "", "comma-separated deterministic abort placements pid@opindex")
		csops    = flag.Int("csops", 1, "critical-section length in instructions")
		verbose  = flag.Bool("v", false, "dump lifecycle events")
		timeline = flag.Bool("timeline", false, "render an ASCII timeline of the run")
		passages = flag.Bool("passages", false, "list every passage with its cost")
		list     = flag.Bool("list", false, "list available locks and exit")
		reproIn  = flag.String("repro", "", "replay a recorded violation artifact and re-check it")
	)
	flag.Parse()

	if *reproIn != "" {
		os.Exit(replayArtifact(*reproIn, *timeline))
	}

	if *list {
		for _, name := range workload.Names() {
			spec, _ := workload.Lookup(name)
			fmt.Printf("%-12s %s\n", name, spec.Paper)
		}
		return
	}

	spec, err := workload.Lookup(*lock)
	if err != nil {
		fatal(err)
	}
	var mdl memory.Model
	switch strings.ToLower(*model) {
	case "cc":
		mdl = memory.CC
	case "dsm":
		mdl = memory.DSM
	default:
		fatal(fmt.Errorf("unknown model %q (want cc or dsm)", *model))
	}

	var plan sim.PlanSeq
	if *failures > 0 {
		plan = append(plan, &sim.FailureBudget{Total: *failures, Rate: 0.01})
	}
	if *unsafe > 0 {
		plan = append(plan, &sim.UnsafeBudget{Total: *unsafe, Rate: 0.3,
			MaxPerProcess: (*unsafe + *n - 1) / *n})
	}
	if *aborts > 0 {
		plan = append(plan, &sim.RandomAborts{Rate: 0.02, MaxTotal: *aborts})
	}
	if *abortAt != "" {
		pts, err := parsePoints(*abortAt, *n)
		if err != nil {
			fatal(err)
		}
		plan = append(plan, &sim.AbortSet{Points: pts})
	}
	cfg := sim.Config{
		N:         *n,
		Model:     mdl,
		Requests:  *requests,
		Seed:      *seed,
		CSOps:     *csops,
		RecordOps: true,
		MaxSteps:  50_000_000,
	}
	if len(plan) > 0 {
		cfg.Plan = plan
	}

	r, err := sim.New(cfg, spec.New)
	if err != nil {
		fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		fatal(err)
	}

	if *verbose {
		for _, ev := range res.Events {
			if ev.Kind == sim.EvOp {
				continue
			}
			fmt.Printf("t=%-8d p%-3d %s\n", ev.Seq, ev.PID, ev.Kind)
		}
		fmt.Println()
	}
	if *timeline {
		fmt.Println(trace.TimelineLevels(res, 100, res.DeepestLevels()))
	}
	if *passages {
		fmt.Println(trace.PassageTable(res))
	}

	fmt.Printf("lock        %s (%s)\n", spec.Name, spec.Paper)
	fmt.Printf("config      n=%d model=%v requests=%d seed=%d\n", *n, mdl, *requests, *seed)
	fmt.Printf("steps       %d\n", res.Steps)
	fmt.Printf("crashes     %d\n", res.CrashCount())
	fmt.Printf("aborts      %d\n", res.AbortCount())
	fmt.Printf("arena       %d words\n", res.ArenaWords)
	fmt.Printf("max CS occupancy  %d\n", res.MaxCSOverlap)
	fmt.Printf("passage RMRs      %v\n", res.SummarizePassageRMRs(nil))
	fmt.Printf("failure-free RMRs %v\n", res.SummarizePassageRMRs(func(p sim.PassageStat) bool { return !p.Crashed }))
	fmt.Printf("request RMRs      %v\n", res.SummarizeRequestRMRs())
	levels := 1
	if spec.Levels != nil {
		levels = spec.Levels(*n)
		fmt.Printf("max level reached %d of %d\n", check.MaxDepth(res, spec.SlowLabels(*n)), levels)
	}
	fmt.Printf("metrics     %s\n", res.MetricsSnapshot(levels))

	battery := map[workload.Strength]string{
		workload.Strong:         "strong: ME, satisfaction, BCSR",
		workload.Weak:           "weak: satisfaction, responsiveness",
		workload.NonRecoverable: "non-recoverable: ME",
	}[spec.Strength]
	checkErr := spec.Check(res)
	fmt.Printf("properties (%s): %s\n", battery, verdict(checkErr))
	if checkErr != nil {
		os.Exit(1)
	}
}

// parsePoints parses "pid@opindex,pid@opindex" into crash/abort points.
func parsePoints(arg string, n int) ([]sim.CrashPoint, error) {
	var pts []sim.CrashPoint
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var pid int
		var at int64
		if _, err := fmt.Sscanf(part, "%d@%d", &pid, &at); err != nil {
			return nil, fmt.Errorf("bad placement %q (want pid@opindex): %w", part, err)
		}
		if pid < 0 || pid >= n || at < 0 {
			return nil, fmt.Errorf("placement %q out of range for n=%d", part, n)
		}
		pts = append(pts, sim.CrashPoint{PID: pid, OpIndex: at})
	}
	return pts, nil
}

// replayArtifact replays a repro file and reports whether the recorded
// verdict reproduces. Returns the process exit code.
func replayArtifact(path string, timeline bool) int {
	a, err := repro.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmesim: %v\n", err)
		return 1
	}
	spec, err := workload.Lookup(a.Lock)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmesim: artifact lock: %v\n", err)
		return 1
	}
	rr, err := repro.Replay(a, spec.New)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmesim: replay: %v\n", err)
		return 1
	}
	fmt.Printf("artifact    %s\n", a)
	if a.Note != "" {
		fmt.Printf("note        %s\n", a.Note)
	}
	fmt.Printf("recorded    property=%s (%s)\n", a.Property, a.Violation)
	fmt.Printf("replayed    steps=%d crashes=%d\n", rr.Result.Steps, rr.Result.CrashCount())
	if timeline {
		fmt.Println(trace.TimelineLevels(rr.Result, 100, rr.Result.DeepestLevels()))
	}
	if rr.Result.CrashCount() > 0 {
		fmt.Print(trace.CrashTable(rr.Result))
	}
	if rr.Reproduced(a) {
		fmt.Printf("verdict     REPRODUCED — %v\n", rr.CheckErr)
		return 0
	}
	if rr.Property == "" {
		fmt.Printf("verdict     NOT REPRODUCED — replay satisfied every property (stale artifact, or the bug is fixed)\n")
	} else {
		fmt.Printf("verdict     DIVERGED — replay violated %q instead of %q: %v\n", rr.Property, a.Property, rr.CheckErr)
	}
	return 1
}

func verdict(err error) string {
	if err != nil {
		return "VIOLATED — " + err.Error()
	}
	return "ok"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rmesim: %v\n", err)
	os.Exit(1)
}
