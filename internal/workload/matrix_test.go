package workload

import (
	"testing"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/sim"
)

// TestCrashMatrix is the repository's heaviest integration test: for every
// recoverable lock in the registry, on both memory models, it crashes a
// process at a sweep of instruction offsets and verifies the lock's full
// property contract each time. It exhaustively exercises recovery at
// every phase of every algorithm.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is expensive; skipped with -short")
	}
	const (
		n        = 4
		requests = 2
		maxAt    = 90
		stride   = 3
	)
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Strength == NonRecoverable {
			continue
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			for _, pid := range []int{0, 2} {
				for at := int64(0); at < maxAt; at += stride {
					plan := &sim.CrashAtOp{PID: pid, OpIndex: at}
					r, err := sim.New(sim.Config{N: n, Model: model, Requests: requests,
						Seed: 29, Plan: plan, MaxSteps: 10_000_000}, spec.New)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, model, err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatalf("%s/%v pid=%d at=%d: %v", name, model, pid, at, err)
					}
					if got := len(res.Requests); got != n*requests {
						t.Fatalf("%s/%v pid=%d at=%d: %d requests, want %d",
							name, model, pid, at, got, n*requests)
					}
					if err := spec.Check(res); err != nil {
						t.Fatalf("%s/%v pid=%d at=%d: %v", name, model, pid, at, err)
					}
				}
			}
		}
	}
}

// TestUnsafeMatrix hammers every strong lock with the unsafe-FAS adversary
// across several seeds; mutual exclusion must hold unconditionally.
func TestUnsafeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("unsafe matrix is expensive; skipped with -short")
	}
	for _, name := range []string{"sa", "ba-log", "ba-sublog"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 5; seed++ {
			plan := &sim.UnsafeBudget{Total: 6, Rate: 0.3, MaxPerProcess: 1}
			r, err := sim.New(sim.Config{N: 8, Model: memory.CC, Requests: 3, Seed: seed,
				Plan: plan, MaxSteps: 20_000_000, CSOps: 4}, spec.New)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if err := check.Strong(res, 1<<20); err != nil {
				t.Fatalf("%s seed=%d (%d crashes): %v", name, seed, res.CrashCount(), err)
			}
		}
	}
}

// TestSegmentBoundsMatrix verifies bounded recovery and bounded exit for
// every recoverable lock under failures. Exit of the composed locks walks
// the whole structure, so the budget scales with the lock's worst-case
// cost rather than being a single universal constant.
func TestSegmentBoundsMatrix(t *testing.T) {
	bounds := map[string][2]int64{ // {maxRecover, maxExit}
		"wr-fresh":   {12, 12},
		"wr":         {24, 24},
		"wr-notify":  {40, 40}, // the retire scan is O(n) instructions
		"bakery":     {8, 8},
		"tournament": {4, 60},
		"arbtree":    {4, 60},
		"sa-bakery":  {4, 120},
		"sa":         {4, 160},
		"ba-log":     {4, 400},
		"ba-sublog":  {4, 400},
	}
	for name, b := range bounds {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := &sim.RandomFailures{Rate: 0.005, MaxTotal: 4, DuringPassage: true}
		r, err := sim.New(sim.Config{N: 6, Model: memory.CC, Requests: 3, Seed: 15, Plan: plan,
			RecordOps: true, MaxSteps: 10_000_000}, spec.New)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := check.SegmentBounds(res, b[0], b[1]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
