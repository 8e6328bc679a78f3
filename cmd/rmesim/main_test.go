package main

import (
	"bytes"
	"strings"
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// TestPrintLevelsCountsTheBase: ba-sublog at n = 4 has one SA level over
// its base, so a passage that commits to the slow path reaches level 2,
// and the printed depth is out of 2, not 1. The run is what `rmesim -lock
// ba-sublog -n 4 -unsafe 4 -requests 4` simulates, where one unsafe
// failure escalates a passage to the base.
func TestPrintLevelsCountsTheBase(t *testing.T) {
	spec, err := workload.Lookup("ba-sublog")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	if got := spec.Levels(n); got != 1 {
		t.Fatalf("ba-sublog has %d SA levels at n=%d, want 1", got, n)
	}
	for _, c := range []struct {
		unsafe int
		want   string
	}{
		{0, "max level reached 1 of 2\n"},
		{4, "max level reached 2 of 2\n"},
	} {
		cfg := sim.Config{N: n, Model: memory.CC, Requests: 4, Seed: 1, CSOps: 1, RecordOps: true}
		if c.unsafe > 0 {
			cfg.Plan = &sim.UnsafeBudget{Total: c.unsafe, Rate: 0.3, MaxPerProcess: (c.unsafe + n - 1) / n}
		}
		r, err := sim.New(cfg, spec.New)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		printLevels(&out, spec, n, res)
		if !strings.HasPrefix(out.String(), c.want) {
			t.Errorf("%d unsafe failures: printed %q, want it to start %q", c.unsafe, out.String(), c.want)
		}
		if got := len(res.MetricsSnapshot(spec.Levels(n) + 1).LevelHist); got != 2 {
			t.Errorf("%d unsafe failures: level histogram has %d buckets, want 2", c.unsafe, got)
		}
	}
}
