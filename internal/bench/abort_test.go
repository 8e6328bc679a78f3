package bench

import (
	"strings"
	"testing"
)

// TestAbortCostSweepShape checks the sweep structure on tiny real runs:
// every native lock is measured at every abort rate, in order.
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
	if !strings.Contains(rep.Table().String(), "Abortable passages") {
		t.Fatal("table missing title")
	}
}

// TestAbortRunReal runs a tiny real measurement end to end at a high
// rate with contention: the row must satisfy the attempts identity and
// complete exactly the passage target.
func TestAbortRunReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real abort measurement; skipped with -short")
	}
	row, err := abortRow(nil, 4, 400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if row.Attempts != row.Passages+row.Aborted {
		t.Fatalf("attempts=%d != passages=%d + aborted=%d", row.Attempts, row.Passages, row.Aborted)
	}
	if row.Passages != 400 {
		t.Fatalf("completed %d passages, want 400", row.Passages)
	}
	if row.Crashes != 0 {
		t.Fatalf("abort run recorded %d crashes", row.Crashes)
	}
}
