package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// TestTracingProtocolAndStats drives the experiment through the stubbed
// runner: per-mode warmups precede any timed rep, timed reps interleave
// none/off/on, and the reported figure is the median rep with overhead
// computed against the none baseline.
func TestTracingProtocolAndStats(t *testing.T) {
	type call struct {
		mode     string
		passages int
	}
	var calls []call
	// Deterministic per-mode latencies with one outlier rep per mode:
	// the median must shrug it off.
	perPassage := map[string]time.Duration{"none": 1000, "off": 1020, "on": 1500}
	reps := map[string]int{}
	stub := func(mode string, workers, passages int) (time.Duration, error) {
		calls = append(calls, call{mode, passages})
		d := perPassage[mode] * time.Duration(passages)
		if passages == 400 { // timed rep, not warmup
			reps[mode]++
			if reps[mode] == 1 {
				d *= 10 // outlier first rep
			}
		}
		return d, nil
	}

	rep, err := tracing(ReportOpts{Workers: 1, TimedPassages: 400, Reps: 3}, stub)
	if err != nil {
		t.Fatal(err)
	}

	// 3 warmups + 3 reps × 3 modes.
	if len(calls) != 3+9 {
		t.Fatalf("%d runner calls, want 12", len(calls))
	}
	for i, c := range calls[:3] {
		if c.passages != 100 {
			t.Fatalf("warmup %d ran %d passages, want 100", i, c.passages)
		}
	}
	for i, c := range calls[3:] {
		want := tracingModes[i%3]
		if c.mode != want || c.passages != 400 {
			t.Fatalf("timed rep %d = %v, want mode %s at 400 passages (interleaving)", i, c, want)
		}
	}

	if len(rep.Results) != 3 {
		t.Fatalf("%d results, want 3", len(rep.Results))
	}
	byMode := map[string]Row{}
	for _, r := range rep.Results {
		byMode[r.Mode] = r
	}
	// Median kills the 10× outlier: the reported ns/passage is the clean
	// per-mode latency.
	for mode, want := range perPassage {
		if got := byMode[mode].NsPerPassage; got != float64(want) {
			t.Errorf("%s ns/passage = %v, want %v (median should drop the outlier)", mode, got, want)
		}
	}
	if got := byMode["none"].OverheadPct; got != 0 {
		t.Errorf("baseline overhead = %v, want 0", got)
	}
	if got := byMode["off"].OverheadPct; got != 2.0 {
		t.Errorf("off overhead = %v%%, want 2%%", got)
	}
	if got := byMode["on"].OverheadPct; got != 50.0 {
		t.Errorf("on overhead = %v%%, want 50%%", got)
	}
}

// TestTracingSmoke runs the experiment for real at miniature scale: shape,
// JSON validity, and positive throughput. Overhead magnitudes are NOT
// asserted — at this scale the numbers are noise; BENCH_tracing.json
// records a real run and Check bounds it.
func TestTracingSmoke(t *testing.T) {
	rep, err := Tracing(ReportOpts{Workers: 2, TimedPassages: 64, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "rme-bench-tracing/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	// workers {1,2} × modes {none,off,on}.
	if len(rep.Results) != 2*3 {
		t.Fatalf("%d results, want 6", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerPassage <= 0 || r.PassagesPerSec <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
		if r.Mode == "none" && r.OverheadPct != 0 {
			t.Fatalf("baseline row has overhead: %+v", r)
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
	assertRowArity(t, "tracing", rep.Table())
}

func TestMedianNs(t *testing.T) {
	cases := []struct {
		ds   []time.Duration
		want float64
	}{
		{nil, 0},
		{[]time.Duration{7}, 7},
		{[]time.Duration{3, 1, 2}, 2},
		{[]time.Duration{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range cases {
		if got := medianNs(tc.ds); got != tc.want {
			t.Errorf("medianNs(%v) = %v, want %v", tc.ds, got, tc.want)
		}
	}
}
