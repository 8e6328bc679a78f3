package bench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rme"
	"rme/internal/metrics"
)

// The metrics experiment measures the paper's adaptivity claims in RMR
// counts rather than wall-clock: per-passage remote memory references
// under the exact CC accounting of internal/metrics, swept over worker
// counts at F=0 (the O(1) failure-free claim: median flat in n) and over
// injected failure budgets F at fixed workers (the O(√F) claim: median
// growing sublinearly, level histogram shifting upward). Failures are
// the paper's unsafe placement — a crash immediately after a filter
// lock's sensitive fetch-and-store — spread evenly through the run.
// Results serialize as BENCH_metrics.json (rme-bench-metrics/v1), which
// Check gates.

// PassageMetrics sweeps worker counts at F=0 and failure budgets at
// o.Workers, and reports exact CC-model RMR and level distributions.
func PassageMetrics(o ReportOpts) (*Report, error) {
	o.fill()
	// The failure-free worker sweep (median RMR flat in n), then the
	// failure sweep at full contention (median growing sublinearly in F,
	// the √F adaptivity bound).
	type point struct{ workers, failures int }
	var points []point
	for workers := 1; workers <= o.Workers; workers *= 2 {
		points = append(points, point{workers, 0})
	}
	for _, f := range o.Failures {
		points = append(points, point{o.Workers, f})
	}
	rep := newReport("metrics", o.Passages)
	for _, lk := range nativeLocks {
		for _, pt := range points {
			row, err := metricsRow(lk.opts, pt.workers, o.Passages, pt.failures)
			if err != nil {
				return nil, fmt.Errorf("bench: metrics %s workers=%d F=%d: %w", lk.name, pt.workers, pt.failures, err)
			}
			row.Lock = lk.name
			rep.Results = append(rep.Results, row)
		}
	}
	return rep, nil
}

// unsafeInjector places exactly `budget` crashes at the paper's unsafe
// position — the instruction immediately after a sensitive filter
// fetch-and-store — spread evenly through the run. Each passage executes
// at least one filter FAS, so spacing the firings over `span` FAS
// sightings distributes the failures across the whole measurement
// instead of front-loading them.
type unsafeInjector struct {
	sightings atomic.Uint64 // ":fas" labels seen so far, global
	fired     atomic.Uint64 // crashes armed so far
	budget    uint64
	every     uint64 // arm on every every-th sighting
	armed     []atomic.Bool
}

func newUnsafeInjector(workers, budget, span int) *unsafeInjector {
	inj := &unsafeInjector{
		budget: uint64(budget),
		armed:  make([]atomic.Bool, workers),
	}
	if budget > 0 {
		inj.every = uint64(span / (budget + 1))
		if inj.every < 1 {
			inj.every = 1
		}
	}
	return inj
}

// hook is the rme.LabeledFailFunc. The label is observed before the
// instruction executes, so crashing on the FAS label itself would be a
// safe failure; instead the sighting arms the process and the crash
// fires at its next instruction — immediately after the FAS completed.
func (inj *unsafeInjector) hook(pid int, label string) bool {
	if inj.armed[pid].Load() {
		inj.armed[pid].Store(false)
		return true
	}
	if inj.budget == 0 || !metrics.IsFilterFAS(label) {
		return false
	}
	n := inj.sightings.Add(1)
	if n%inj.every != 0 {
		return false
	}
	for {
		f := inj.fired.Load()
		if f >= inj.budget {
			return false
		}
		if inj.fired.CompareAndSwap(f, f+1) {
			inj.armed[pid].Store(true)
			return false
		}
	}
}

// metricsRow completes passages passages split across workers processes
// on one metrics-enabled mutex, injecting failures unsafe crashes along
// the way, and condenses the final snapshot.
func metricsRow(lockOpts []rme.Option, workers, passages, failures int) (Row, error) {
	if failures < 0 {
		return Row{}, errors.New("negative failure budget")
	}
	inj := newUnsafeInjector(workers, failures, passages)
	var extra []rme.Option
	if failures > 0 {
		extra = append(extra, rme.WithLabeledFailures(inj.hook))
	}
	m, err := rme.New(workers, withMetrics(lockOpts, extra...)...)
	if err != nil {
		return Row{}, err
	}
	drive(workers, passages, func(pid, _ int) {
		for !m.Passage(pid, func() {}) {
			// Crashed. A real failed process stays down for a while
			// before restarting; without this gap the recovering process
			// races ahead and repairs the broken filter state before any
			// other process can run into it, and the adaptivity machinery
			// never engages. The sleep yields the CPU so the survivors
			// actually execute during the outage.
			time.Sleep(200 * time.Microsecond)
		}
	})
	s, _ := m.MetricsSnapshot()
	row := condense(s)
	row.Workers, row.Failures = workers, failures
	return row, nil
}
