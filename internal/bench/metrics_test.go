package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"rme/internal/workload"
)

// TestPassageMetricsSweepShape checks the sweep structure on tiny runs: a
// worker sweep at F=0 and the failure sweep at Workers, for each shipped
// lock, every row completing exactly the passage target.
func TestPassageMetricsSweepShape(t *testing.T) {
	rep, err := PassageMetrics(ReportOpts{Workers: 4, Passages: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Per lock: workers {1,2,4} at F=0, then every F at workers=4.
	type point struct{ workers, failures int }
	want := []point{{1, 0}, {2, 0}, {4, 0}}
	for _, f := range metricsFailures {
		want = append(want, point{4, f})
	}
	if len(rep.Results) != 2*len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), 2*len(want))
	}
	for i, r := range rep.Results {
		if got := (point{r.Workers, r.Failures}); got != want[i%len(want)] {
			t.Fatalf("row %d = %+v, want %+v", i, got, want[i%len(want)])
		}
		if lock := workload.Shipped()[i/len(want)]; r.Lock != lock {
			t.Fatalf("row %d lock %q, want %q", i, r.Lock, lock)
		}
		if r.Passages != 100 || r.RMRMedian <= 0 {
			t.Fatalf("snapshot condensation wrong: %+v", r)
		}
	}
}

// TestPassageMetricsRunnerError pins the error path's context string: 3
// passages run on one worker, and cannot split over two.
func TestPassageMetricsRunnerError(t *testing.T) {
	_, err := PassageMetrics(ReportOpts{Workers: 2, Passages: 3})
	if err == nil || !strings.Contains(err.Error(), "metrics ba-log workers=2 F=0: 3 passages do not split evenly") {
		t.Fatalf("err = %v", err)
	}
}

// TestPassageMetricsSmoke runs the experiment at miniature scale: schema
// validity, exact passage accounting, exact injected failure and
// recovery counts, and the invariants the gates assert at full scale
// (the exact solo cost, Theorem 5.17's depth bound, no escalation above
// level 1 at F=0).
func TestPassageMetricsSmoke(t *testing.T) {
	rep, err := PassageMetrics(ReportOpts{Workers: 2, Passages: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "rme-bench-metrics/v1" || rep.Seed != reportSeed {
		t.Fatalf("schema %q seed %d", rep.Schema, rep.Seed)
	}
	// Per lock: workers {1,2} at F=0 plus every F at workers=2.
	if want := 2 * (2 + len(metricsFailures)); len(rep.Results) != want {
		t.Fatalf("%d results, want %d", len(rep.Results), want)
	}
	for _, r := range rep.Results {
		if r.Passages != 200 {
			t.Fatalf("%s w=%d F=%d: %d passages, want 200", r.Lock, r.Workers, r.Failures, r.Passages)
		}
		if r.Crashes != uint64(r.Failures) || r.Recoveries != r.Crashes {
			t.Fatalf("%s w=%d F=%d: %d crashes injected, %d recoveries", r.Lock, r.Workers, r.Failures, r.Crashes, r.Recoveries)
		}
		if r.MaxLevel > depthBound(r.Failures) {
			t.Fatalf("%s w=%d F=%d: escalated to level %d", r.Lock, r.Workers, r.Failures, r.MaxLevel)
		}
		if r.Failures == 0 {
			if r.MaxLevel != 1 {
				t.Fatalf("%s w=%d: escalated to level %d with no failures", r.Lock, r.Workers, r.MaxLevel)
			}
			if r.RMRMedian <= 0 || r.RMRMedian > 100 {
				t.Fatalf("%s w=%d: failure-free median RMR %d outside sanity bounds", r.Lock, r.Workers, r.RMRMedian)
			}
		}
		if r.Workers == 1 && r.Failures == 0 && (r.RMRMedian != soloRMRs || r.RMRP99 != soloRMRs) {
			t.Fatalf("%s: uncontended median %d, p99 %d RMRs, want exactly %d", r.Lock, r.RMRMedian, r.RMRP99, soloRMRs)
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
