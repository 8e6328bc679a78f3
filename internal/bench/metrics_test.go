package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPassageMetricsSweepShape checks the sweep structure on tiny real
// runs: a worker sweep at F=0 and a failure sweep at Workers, for each
// lock, every row completing exactly the passage target.
func TestPassageMetricsSweepShape(t *testing.T) {
	rep, err := PassageMetrics(ReportOpts{Workers: 4, Passages: 100, Failures: []int{2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	// Per lock: workers {1,2,4} at F=0, then F {2,8} at workers=4.
	type point struct{ workers, failures int }
	want := []point{{1, 0}, {2, 0}, {4, 0}, {4, 2}, {4, 8}}
	if len(rep.Results) != 2*len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), 2*len(want))
	}
	for i, r := range rep.Results {
		if got := (point{r.Workers, r.Failures}); got != want[i%len(want)] {
			t.Fatalf("row %d = %+v, want %+v", i, got, want[i%len(want)])
		}
		if lock := nativeLocks[i/len(want)].name; r.Lock != lock {
			t.Fatalf("row %d lock %q, want %q", i, r.Lock, lock)
		}
		if r.Passages != 100 || r.RMRMedian <= 0 {
			t.Fatalf("snapshot condensation wrong: %+v", r)
		}
	}
}

// TestPassageMetricsRunnerError pins the error path's context string.
func TestPassageMetricsRunnerError(t *testing.T) {
	_, err := PassageMetrics(ReportOpts{Workers: 1, Passages: 10, Failures: []int{-1}})
	if err == nil || !strings.Contains(err.Error(), "metrics ba-log workers=1 F=-1") {
		t.Fatalf("err = %v", err)
	}
}

// TestPassageMetricsSmoke runs the real experiment at miniature scale:
// schema validity, exact passage accounting, exact injected failure
// counts, and the failure-free invariants the gates assert at full scale
// (bounded median RMR, no escalation above level 1 at F=0).
func TestPassageMetricsSmoke(t *testing.T) {
	rep, err := PassageMetrics(ReportOpts{Workers: 2, Passages: 200, Failures: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "rme-bench-metrics/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	// Per lock: workers {1,2} at F=0 plus F=4 at workers=2.
	if len(rep.Results) != 2*3 {
		t.Fatalf("%d results, want 6", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Passages != 200 {
			t.Fatalf("%s w=%d F=%d: %d passages, want 200", r.Lock, r.Workers, r.Failures, r.Passages)
		}
		if r.Crashes != uint64(r.Failures) {
			t.Fatalf("%s w=%d F=%d: %d crashes injected", r.Lock, r.Workers, r.Failures, r.Crashes)
		}
		if r.Failures == 0 {
			if r.MaxLevel != 1 {
				t.Fatalf("%s w=%d: escalated to level %d with no failures", r.Lock, r.Workers, r.MaxLevel)
			}
			if r.RMRMedian <= 0 || r.RMRMedian > 100 {
				t.Fatalf("%s w=%d: failure-free median RMR %d outside sanity bounds", r.Lock, r.Workers, r.RMRMedian)
			}
		}
		if r.Workers == 1 && r.Failures == 0 && r.RMRMedian != soloRMRs {
			t.Fatalf("%s: uncontended median %d RMRs, want exactly %d", r.Lock, r.RMRMedian, soloRMRs)
		}
		if r.FastPath+r.SlowPath != r.Passages {
			t.Fatalf("fast %d + slow %d != passages %d", r.FastPath, r.SlowPath, r.Passages)
		}
		var hist uint64
		for _, v := range r.LevelHist {
			hist += v
		}
		if hist != r.Passages {
			t.Fatalf("level hist %v sums to %d, want %d", r.LevelHist, hist, r.Passages)
		}
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc Report
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	assertRowArity(t, "metrics", rep.Table())
}

// TestUnsafeInjectorBudget exercises the injector in isolation: exactly
// budget crashes, each armed by a ":fas" sighting and fired on the
// process's next instruction.
func TestUnsafeInjectorBudget(t *testing.T) {
	inj := newUnsafeInjector(2, 3, 30)
	crashes := 0
	for i := 0; i < 200; i++ {
		pid := i % 2
		if inj.hook(pid, "F1:fas") {
			t.Fatal("crash fired on the FAS itself (safe placement)")
		}
		if inj.hook(pid, "") {
			crashes++
		}
	}
	if crashes != 3 {
		t.Fatalf("%d crashes, want exactly 3", crashes)
	}
	// Exhausted budget: never fires again.
	for i := 0; i < 50; i++ {
		if inj.hook(0, "F1:fas") || inj.hook(0, "") {
			t.Fatal("injector fired past its budget")
		}
	}
}
