package bench

import (
	"fmt"
	"math/rand"
	"time"

	"rme"
)

// The abort experiment measures what abortable passages cost: per-passage
// RMRs of the failure-free path at abort rates 0, 1% and 10%, plus the
// RMR distribution of the back-outs themselves. Aborts are injected
// through the public deadline API (TryLockFor with a microsecond-scale
// deadline), so the measurement exercises the real poll/back-out
// machinery end to end. The rate-0 row never calls the abort API; that
// abort support costs no RMRs on unaborted passages is pinned exactly by
// the rme package's TestAbortFreeWhenUnused. Results serialize as
// BENCH_abort.json (rme-bench-abort/v1).

// abortRates are the fractions of attempts made under a tight deadline.
// A deadlined attempt aborts only if the deadline actually expires while
// queued, so the delivered abort count is reported separately.
var abortRates = []float64{0, 0.01, 0.10}

// AbortCost sweeps abort rates on every native lock at o.Workers and
// reports the failure-free and back-out RMR distributions.
func AbortCost(o ReportOpts) (*Report, error) {
	o.fill()
	rep := newReport("abort", o.Passages)
	for _, lk := range nativeLocks {
		for _, rate := range abortRates {
			row, err := abortRow(lk.opts, o.Workers, o.Passages, rate)
			if err != nil {
				return nil, fmt.Errorf("bench: abort %s rate=%g: %w", lk.name, rate, err)
			}
			row.Lock = lk.name
			rep.Results = append(rep.Results, row)
		}
	}
	return rep, nil
}

// abortRow completes passages passages split across workers processes,
// making the rate fraction of attempts under a tight deadline, and
// condenses the final snapshot. An attempt whose deadline expires backs
// out through the abort protocol and the passage is then completed by an
// ordinary re-acquisition, so every iteration ends with one completed
// passage regardless of the abort outcome.
func abortRow(lockOpts []rme.Option, workers, passages int, rate float64) (Row, error) {
	m, err := rme.New(workers, withMetrics(lockOpts)...)
	if err != nil {
		return Row{}, err
	}
	rngs := make([]*rand.Rand, workers)
	for pid := range rngs {
		rngs[pid] = rand.New(rand.NewSource(int64(pid)*1099511628211 + 1))
	}
	drive(workers, passages, func(pid, _ int) {
		if rng := rngs[pid]; rate > 0 && rng.Float64() < rate {
			if m.TryLockFor(pid, time.Duration(1+rng.Intn(20))*time.Microsecond) {
				m.Unlock(pid)
				return
			}
			// Aborted out of the queue; complete the passage with an
			// ordinary re-acquisition (abort-then-reacquire).
		}
		m.Lock(pid)
		m.Unlock(pid)
	})
	s, _ := m.MetricsSnapshot()
	row := condense(s)
	row.Workers, row.Rate = workers, rate
	return row, nil
}
