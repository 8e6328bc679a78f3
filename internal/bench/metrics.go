package bench

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// The metrics experiment measures the paper's adaptivity claims in RMR
// counts rather than wall-clock: per-passage remote memory references of
// the shipped locks on the seeded lockstep simulator, swept over worker
// counts at F=0 (the O(1) failure-free claim: median flat in n) and over
// unsafe failure budgets F at the largest worker count (Theorem 5.17's
// depth bound and the O(√F) claim: the level histogram may shift upward
// only as failures accumulate). Failures are the paper's unsafe
// placement — a crash immediately after a filter lock's sensitive
// fetch-and-store — spread through the run (unsafePlan). The simulator
// makes every row a function of the seed, so BENCH_metrics.json
// (rme-bench-metrics/v1) regenerates byte for byte, and Check gates it.

// reportSeed drives the scheduler and the adversary of every simulated
// report row.
const reportSeed = 1

// metricsFailures are the failure sweep's unsafe failure budgets F; F = 0
// is covered by the worker sweep.
var metricsFailures = []int{1, 2, 4, 8, 16, 32}

// PassageMetrics sweeps worker counts at F=0 and failure budgets at
// o.Workers, and reports exact CC-model RMR and level distributions.
func PassageMetrics(o ReportOpts) (*Report, error) {
	o.fill()
	type point struct{ workers, failures int }
	var points []point
	for workers := 1; workers <= o.Workers; workers *= 2 {
		points = append(points, point{workers, 0})
	}
	for _, f := range metricsFailures {
		points = append(points, point{o.Workers, f})
	}
	rep := simReport("metrics", o.Passages)
	for _, lk := range workload.Shipped() {
		for _, pt := range points {
			row, err := simRow(lk, pt.workers, o.Passages, unsafePlan(pt.failures, pt.workers))
			if err != nil {
				return nil, fmt.Errorf("bench: metrics %s workers=%d F=%d: %w", lk, pt.workers, pt.failures, err)
			}
			row.Failures = pt.failures
			rep.Results = append(rep.Results, row)
		}
	}
	return rep, nil
}

// simReport starts a simulated experiment's report. Its numbers depend
// on the seed alone, so it records the seed and no machine.
func simReport(experiment string, passages int) *Report {
	return &Report{Schema: schemaOf(experiment), Passages: passages, Seed: reportSeed}
}

// simRow runs a shipped lock for passages passages, passages/workers
// requests per process, on the lockstep simulator (CC model, reportSeed)
// under plan (nil: no faults), and condenses the run's metrics snapshot.
// A run the lock's property battery rejects is an error, and so is a
// passage count the workers cannot split evenly: a row never reports
// passages that did not run.
func simRow(lock string, workers, passages int, plan func(n int) sim.FailurePlan) (Row, error) {
	if passages%workers != 0 {
		return Row{}, fmt.Errorf("%d passages do not split evenly over %d workers", passages, workers)
	}
	run, err := simulate(Point{Lock: lock, N: workers, Model: memory.CC, Requests: passages / workers,
		Seed: reportSeed, Plan: plan, RecordOps: true})
	if err == nil {
		err = run.verdict
	}
	if err != nil {
		return Row{}, err
	}
	// The histogram spans the SA-Lock levels plus the base, as the native
	// recorder's does.
	row := condense(run.res.MetricsSnapshot(run.spec.Levels(workers) + 1))
	row.Lock, row.Workers = lock, workers
	return row, nil
}
