package bench

import (
	"fmt"

	"rme/internal/sim"
	"rme/internal/workload"
)

// The abort experiment measures what abortable passages cost: per-passage
// RMRs of the shipped locks on the seeded lockstep simulator at abort
// rates 0, 0.1 % and 1 %, plus the RMR distribution of the back-outs
// themselves. The rate is a waiting process's probability of an abort
// before each of its instructions (sim.RandomAborts), so every nonzero
// rate delivers aborts, each backed out through the lock's Abort protocol
// and followed by a fresh attempt at the same request. The rate-0 row
// runs no abort plan and equals the metrics experiment's F=0 row at the
// same workers; that abort support costs no RMRs on unaborted passages is
// pinned exactly by the rme package's TestAbortFreeWhenUnused. Results
// serialize as BENCH_abort.json (rme-bench-abort/v1).

// abortRates are the per-instruction abort probabilities of a waiting
// process.
var abortRates = []float64{0, 0.001, 0.01}

// AbortCost sweeps abort rates on every shipped lock at o.Workers and
// reports the failure-free and back-out RMR distributions.
func AbortCost(o ReportOpts) (*Report, error) {
	o.fill()
	rep := simReport("abort", o.Passages)
	for _, lk := range workload.Shipped() {
		for _, rate := range abortRates {
			var plan func(int) sim.FailurePlan
			if rate > 0 {
				plan = func(int) sim.FailurePlan { return &sim.RandomAborts{Rate: rate} }
			}
			row, err := simRow(lk, o.Workers, o.Passages, plan)
			if err != nil {
				return nil, fmt.Errorf("bench: abort %s rate=%g: %w", lk, rate, err)
			}
			row.Rate = rate
			rep.Results = append(rep.Results, row)
		}
	}
	return rep, nil
}
