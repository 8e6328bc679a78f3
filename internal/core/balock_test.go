package core

import (
	"testing"

	"rme/internal/grlock"
	"rme/internal/memory"
	"rme/internal/sim"
)

func tournamentBase(sp memory.Space, n int) RecoverableLock {
	return grlock.NewTournament(sp, n)
}

func baFactory(sp memory.Space, n int) sim.Lock {
	return NewBALock(sp, n, DefaultLevels(n), tournamentBase, nil)
}

func TestDefaultLevels(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {4, 2}, {8, 3}, {16, 4}, {64, 6}, {100, 7},
	}
	for _, tt := range tests {
		if got := DefaultLevels(tt.n); got != tt.want {
			t.Errorf("DefaultLevels(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestSubLogLevels(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {4, 1}, {16, 2}, {64, 3}, {1024, 4},
	}
	for _, tt := range tests {
		if got := SubLogLevels(tt.n); got != tt.want {
			t.Errorf("SubLogLevels(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestBALockStructure(t *testing.T) {
	a := memory.NewArena(memory.CC, 8)
	b := NewBALock(a, 8, 3, tournamentBase, nil)
	if b.Levels() != 3 {
		t.Fatalf("levels = %d, want 3", b.Levels())
	}
	for k := 1; k <= 3; k++ {
		sa := b.Level(k)
		if sa == nil {
			t.Fatalf("level %d missing", k)
		}
		wantName := map[int]string{1: "F1", 2: "F2", 3: "F3"}[k]
		if sa.Name() != wantName {
			t.Fatalf("level %d name = %q, want %q", k, sa.Name(), wantName)
		}
	}
	// Level i's core is level i+1; the last level's core is the base.
	if b.Level(1).Core() != RecoverableLock(b.Level(2)) {
		t.Fatal("level 1 core is not level 2")
	}
	if b.Level(3).Core() != b.Base() {
		t.Fatal("level 3 core is not the base lock")
	}
	labels := b.SlowLabels()
	if len(labels) != 3 || labels[0] != "F1:slow" || labels[2] != "F3:slow" {
		t.Fatalf("slow labels = %v", labels)
	}
	if b.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestBALockFailureFree(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, n := range []int{1, 2, 4, 8} {
			res := mustRun(t, sim.Config{N: n, Model: model, Requests: 3, Seed: int64(n) * 7}, baFactory)
			if res.MaxCSOverlap != 1 {
				t.Fatalf("[%v n=%d] ME violated: overlap %d", model, n, res.MaxCSOverlap)
			}
			if got := len(res.Requests); got != 3*n {
				t.Fatalf("[%v n=%d] %d requests, want %d", model, n, got, 3*n)
			}
		}
	}
}

func TestBALockConstantRMRsWithoutFailures(t *testing.T) {
	// The headline first scenario of Table 1: O(1) RMRs per passage with
	// no failures, independent of n (and of the number of levels).
	const bound = 45
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		var prev int64
		for _, n := range []int{2, 8, 32} {
			res := mustRun(t, sim.Config{N: n, Model: model, Requests: 4, Seed: 19}, baFactory)
			s := res.SummarizePassageRMRs(nil)
			if s.Max > bound {
				t.Fatalf("[%v n=%d] max failure-free RMRs = %d, want ≤ %d", model, n, s.Max, bound)
			}
			if prev != 0 && s.Max > prev+4 {
				t.Fatalf("[%v] RMRs grew with n: %d → %d", model, prev, s.Max)
			}
			prev = s.Max
		}
	}
}

func TestBALockNeverEscalatesWithoutFailures(t *testing.T) {
	res := mustRun(t, sim.Config{N: 8, Model: memory.CC, Requests: 4, Seed: 23, RecordOps: true}, baFactory)
	for _, ev := range res.Events {
		if ev.Kind != sim.EvOp {
			continue
		}
		switch ev.Op.Label {
		case "F1:slow", "F2:slow", "F3:slow":
			t.Fatalf("escalation (%s) without failures", ev.Op.Label)
		}
	}
}

func TestBALockMEUnderHeavyFailures(t *testing.T) {
	// Strong recoverability of the full stack (Theorem 5.10).
	for seed := int64(0); seed < 6; seed++ {
		plan := &sim.RandomFailures{Rate: 0.01, MaxTotal: 15, DuringPassage: true}
		res := mustRun(t, sim.Config{N: 8, Model: memory.CC, Requests: 3, Seed: seed, Plan: plan,
			MaxSteps: 10_000_000}, baFactory)
		if res.MaxCSOverlap != 1 {
			t.Fatalf("seed=%d: ME violated with %d crashes", seed, res.CrashCount())
		}
		if got := len(res.Requests); got != 24 {
			t.Fatalf("seed=%d: %d requests, want 24", seed, got)
		}
	}
}

func TestBALockCrashSweep(t *testing.T) {
	for at := int64(0); at < 100; at += 5 {
		plan := &sim.CrashAtOp{PID: 1, OpIndex: at}
		res := mustRun(t, sim.Config{N: 4, Model: memory.DSM, Requests: 2, Seed: 31, Plan: plan,
			MaxSteps: 5_000_000}, baFactory)
		if res.MaxCSOverlap != 1 {
			t.Fatalf("at=%d: ME violated", at)
		}
		if got := len(res.Requests); got != 8 {
			t.Fatalf("at=%d: %d requests, want 8", at, got)
		}
	}
}

func TestBALockEscalationRequiresFailures(t *testing.T) {
	// Theorem 5.17 in contrapositive, coarse form: with a single unsafe
	// failure at level 1, processes may reach level 2 but never level 3.
	plan := &sim.CrashOnLabel{PID: 0, Label: "F1:fas", After: true}
	res := mustRun(t, sim.Config{N: 8, Model: memory.CC, Requests: 3, Seed: 37, Plan: plan,
		RecordOps: true, CSOps: 4, MaxSteps: 10_000_000}, baFactory)
	if res.CrashCount() != 1 {
		t.Fatalf("%d crashes, want 1", res.CrashCount())
	}
	deepest := 0
	for _, ev := range res.Events {
		if ev.Kind != sim.EvOp {
			continue
		}
		switch ev.Op.Label {
		case "F1:slow":
			if deepest < 1 {
				deepest = 1
			}
		case "F2:slow":
			if deepest < 2 {
				deepest = 2
			}
		case "F3:slow":
			deepest = 3
		}
	}
	if deepest >= 2 {
		t.Fatalf("a single failure escalated processes to level %d+1", deepest)
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("ME violated: overlap %d", res.MaxCSOverlap)
	}
}

func TestBALockValidation(t *testing.T) {
	a := memory.NewArena(memory.CC, 2)
	mustPanicCore(t, "n", func() { NewBALock(a, 0, 1, tournamentBase, nil) })
	mustPanicCore(t, "levels", func() { NewBALock(a, 2, 0, tournamentBase, nil) })
	mustPanicCore(t, "base", func() { NewBALock(a, 2, 1, nil, nil) })
	mustPanicCore(t, "nil base", func() {
		NewBALock(a, 2, 1, func(memory.Space, int) RecoverableLock { return nil }, nil)
	})
}

func mustPanicCore(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestBALockFCFSWithoutFailures(t *testing.T) {
	// Section 1: the target lock is FCFS in the absence of failures —
	// processes enter the target CS in the order of their level-1 filter
	// appends.
	res := mustRun(t, sim.Config{N: 8, Model: memory.CC, Requests: 3, Seed: 47, RecordOps: true}, baFactory)
	var fasOrder, csOrder []int
	for _, ev := range res.Events {
		switch {
		case ev.Kind == sim.EvOp && ev.Op.Label == "F1:fas":
			fasOrder = append(fasOrder, ev.PID)
		case ev.Kind == sim.EvCSEnter:
			csOrder = append(csOrder, ev.PID)
		}
	}
	if len(fasOrder) != len(csOrder) || len(csOrder) != 24 {
		t.Fatalf("%d FAS vs %d CS entries, want 24 each", len(fasOrder), len(csOrder))
	}
	for i := range fasOrder {
		if fasOrder[i] != csOrder[i] {
			t.Fatalf("FCFS violated at %d: doorway %v vs entry %v", i, fasOrder, csOrder)
		}
	}
}
