package bench

import (
	"strings"
	"testing"

	"rme/internal/sim"
)

// TestAbortCostSweepShape checks the sweep structure on tiny runs: every
// shipped lock is measured at every abort rate, in order.
func TestAbortCostSweepShape(t *testing.T) {
	rep, err := AbortCost(ReportOpts{Workers: 4, Passages: 80})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "rme-bench-abort/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	// 2 locks × 3 rates.
	if len(rep.Results) != 2*len(abortRates) {
		t.Fatalf("%d results, want %d", len(rep.Results), 2*len(abortRates))
	}
	for i, res := range rep.Results {
		if want := abortRates[i%len(abortRates)]; res.Rate != want || res.Workers != 4 {
			t.Fatalf("row %d ran rate %g workers %d, want rate %g workers 4", i, res.Rate, res.Workers, want)
		}
		if res.Attempts != res.Passages+res.Aborted || res.Passages != 80 {
			t.Fatalf("row %d breaks the attempts identity or the passage target: %+v", i, res)
		}
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
	tb := rep.Table().String()
	if !strings.Contains(tb, "Abortable passages") || !strings.Contains(tb, " 0.001 ") {
		t.Fatalf("table missing its title or a rate:\n%s", tb)
	}
}

// TestAbortRunReal runs a small measurement end to end at a high rate
// with contention: the row must deliver aborts, satisfy the attempts
// identity and complete exactly the passage target.
func TestAbortRunReal(t *testing.T) {
	row, err := simRow("ba-log", 4, 400, func(int) sim.FailurePlan { return &sim.RandomAborts{Rate: 0.05} })
	if err != nil {
		t.Fatal(err)
	}
	if row.Aborted == 0 || row.Attempts != row.Passages+row.Aborted {
		t.Fatalf("attempts=%d, passages=%d, aborted=%d: want aborts and attempts == passages + aborted",
			row.Attempts, row.Passages, row.Aborted)
	}
	if row.Passages != 400 {
		t.Fatalf("completed %d passages, want 400", row.Passages)
	}
	if row.Crashes != 0 || row.Recoveries != 0 {
		t.Fatalf("abort run recorded %d crashes, %d recoveries", row.Crashes, row.Recoveries)
	}
}
