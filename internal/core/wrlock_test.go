package core

import (
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
)

func wrFactory(name string) sim.Factory {
	return func(sp memory.Space, n int) sim.Lock {
		return NewWRLock(sp, n, name, nil)
	}
}

func mustRun(t *testing.T, cfg sim.Config, f sim.Factory) *sim.Result {
	t.Helper()
	r, err := sim.New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWRLockFailureFree(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, n := range []int{1, 2, 3, 8} {
			res := mustRun(t, sim.Config{N: n, Model: model, Requests: 4, Seed: int64(n)}, wrFactory("wr"))
			if res.MaxCSOverlap != 1 {
				t.Fatalf("[%v n=%d] mutual exclusion violated without failures: overlap %d", model, n, res.MaxCSOverlap)
			}
			if got := len(res.Requests); got != 4*n {
				t.Fatalf("[%v n=%d] %d requests satisfied, want %d", model, n, got, 4*n)
			}
		}
	}
}

func TestWRLockConstantRMRs(t *testing.T) {
	// Theorem 4.7: O(1) RMRs per passage under both models. The maximum
	// per-passage RMR count must be a small constant independent of n.
	// Under the write-through CC accounting every write costs one RMR,
	// so the constant is larger than under DSM; what matters is that it
	// does not grow with n.
	const bound = 20
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		var prevMax int64
		for _, n := range []int{2, 8, 32} {
			res := mustRun(t, sim.Config{N: n, Model: model, Requests: 5, Seed: 9}, wrFactory("wr"))
			s := res.SummarizePassageRMRs(nil)
			if s.Max > bound {
				t.Fatalf("[%v n=%d] max RMRs per passage = %d, want ≤ %d", model, n, s.Max, bound)
			}
			if prevMax != 0 && s.Max > prevMax+2 {
				t.Fatalf("[%v] per-passage RMRs grew with n: %d → %d", model, prevMax, s.Max)
			}
			prevMax = s.Max
		}
	}
}

func TestWRLockFCFSWithoutFailures(t *testing.T) {
	// In the absence of failures the lock is FCFS: processes enter the CS
	// in the order their FAS instructions appended them to the queue.
	res := mustRun(t, sim.Config{N: 6, Model: memory.CC, Requests: 3, Seed: 4, RecordOps: true}, wrFactory("wr"))
	var fasOrder, csOrder []int
	for _, ev := range res.Events {
		switch {
		case ev.Kind == sim.EvOp && ev.Op.Label == "wr:fas":
			fasOrder = append(fasOrder, ev.PID)
		case ev.Kind == sim.EvCSEnter:
			csOrder = append(csOrder, ev.PID)
		}
	}
	if len(fasOrder) != len(csOrder) || len(fasOrder) != 18 {
		t.Fatalf("event counts: %d FAS, %d CS enters, want 18 each", len(fasOrder), len(csOrder))
	}
	for i := range fasOrder {
		if fasOrder[i] != csOrder[i] {
			t.Fatalf("FCFS violated at %d: FAS order %v, CS order %v", i, fasOrder, csOrder)
		}
	}
}

func TestWRLockSafeCrashesKeepME(t *testing.T) {
	// Failures anywhere except immediately after the FAS are safe
	// (Definition 3.4): mutual exclusion must hold. Crash each process
	// once right before its FAS (the attempt aborts and retries).
	plan := sim.PlanSeq{
		&sim.CrashOnLabel{PID: 0, Label: "wr:fas"},
		&sim.CrashOnLabel{PID: 2, Label: "wr:fas"},
	}
	res := mustRun(t, sim.Config{N: 4, Model: memory.DSM, Requests: 3, Seed: 8, Plan: plan}, wrFactory("wr"))
	if res.CrashCount() != 2 {
		t.Fatalf("%d crashes, want 2", res.CrashCount())
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("safe failures violated ME: overlap %d", res.MaxCSOverlap)
	}
	if got := len(res.Requests); got != 12 {
		t.Fatalf("%d requests satisfied, want 12", got)
	}
}

func TestWRLockCrashInCSReentry(t *testing.T) {
	// BCSR (Theorem 4.4): after a crash inside the CS, the process
	// re-enters before anyone else, within a bounded number of steps.
	plan := sim.PlanFunc(func(ctx sim.StepCtx) bool {
		return ctx.PID == 1 && ctx.InCS && ctx.ProcCrashes == 0
	})
	res := mustRun(t, sim.Config{N: 4, Model: memory.CC, Requests: 2, Seed: 17, Plan: &planWrap{plan}}, wrFactory("wr"))
	if res.CrashCount() != 1 {
		t.Fatalf("%d crashes, want 1", res.CrashCount())
	}
	crashSeq := res.Crashes[0].Seq
	for _, ev := range res.Events {
		if ev.Seq <= crashSeq || ev.Kind != sim.EvCSEnter {
			continue
		}
		if ev.PID != 1 {
			t.Fatalf("process %d entered CS before the crashed process re-entered", ev.PID)
		}
		break
	}
	// The re-entry passage is bounded: far fewer steps than a contended
	// acquisition (it only re-evaluates guards).
	var reentry *sim.PassageStat
	for i, p := range res.Passages {
		if p.PID == 1 && p.Attempt == 1 && !p.Crashed {
			reentry = &res.Passages[i]
			break
		}
	}
	if reentry == nil {
		t.Fatal("no re-entry passage recorded")
	}
	if reentry.Ops > 30 {
		t.Fatalf("re-entry passage took %d ops, want bounded (≤ 30)", reentry.Ops)
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("ME violated: overlap %d", res.MaxCSOverlap)
	}
}

// planWrap lets PlanFunc-style closures carry state externally when needed.
type planWrap struct{ sim.FailurePlan }

func TestWRLockUnsafeFailureFragmentsQueue(t *testing.T) {
	// Crash two processes immediately after their FAS on tail — the
	// paper's unsafe failure (Figure 1). The queue fragments into
	// sub-queues; mutual exclusion may be violated, but starvation
	// freedom must still hold and fragmentation is bounded by the number
	// of unsafe failures (Proposition 4.1 / Theorem 4.2).
	var lck *WRLock
	factory := func(sp memory.Space, n int) sim.Lock {
		lck = NewWRLock(sp, n, "wr", nil)
		return lck
	}
	plan := sim.PlanSeq{
		&sim.CrashOnLabel{PID: 3, Label: "wr:fas", After: true},
		&sim.CrashOnLabel{PID: 6, Label: "wr:fas", After: true},
	}
	maxFrag := 0
	crashes := 0
	appending := sim.MidAppend{Label: "wr:fas"}
	cfg := sim.Config{
		N: 8, Model: memory.CC, Requests: 2, Seed: 21, Plan: plan, CSOps: 6, RecordOps: true,
		OnEvent: func(ev sim.Event, a *memory.Arena) {
			appending.Observe(ev)
			if ev.Kind == sim.EvCrash {
				crashes++
			}
			// A live process between its FAS and persisting the result
			// looks like a sub-queue of its own for that step.
			if (ev.Kind == sim.EvCSEnter || ev.Kind == sim.EvCrash) && appending.Settled() {
				qs := lck.SubQueues(a)
				if len(qs) > maxFrag {
					maxFrag = len(qs)
				}
				if len(qs) > 1+crashes {
					t.Errorf("%d sub-queues with only %d unsafe failures", len(qs), crashes)
				}
			}
		},
	}
	res := mustRun(t, cfg, factory)
	if res.CrashCount() != 2 {
		t.Fatalf("%d crashes, want 2", res.CrashCount())
	}
	if got := len(res.Requests); got != 16 {
		t.Fatalf("%d requests satisfied, want 16 (starvation?)", got)
	}
	if maxFrag < 2 {
		t.Fatalf("queue never fragmented (max %d sub-queues), expected ≥ 2 after unsafe failures", maxFrag)
	}
}

func TestWRLockResponsiveOverlap(t *testing.T) {
	// Theorem 4.2: k+1 simultaneous CS occupants require ≥ k unsafe
	// failures, so overlap can never exceed crashes+1.
	for seed := int64(0); seed < 8; seed++ {
		plan := &sim.RandomFailures{Rate: 0.02, MaxTotal: 6, DuringPassage: true}
		res := mustRun(t, sim.Config{N: 8, Model: memory.DSM, Requests: 3, Seed: seed, Plan: plan}, wrFactory("wr"))
		if res.MaxCSOverlap > res.CrashCount()+1 {
			t.Fatalf("seed %d: overlap %d with %d failures (responsiveness violated)",
				seed, res.MaxCSOverlap, res.CrashCount())
		}
		if got, want := len(res.Requests), 3*8; got != want {
			t.Fatalf("seed %d: %d requests satisfied, want %d", seed, got, want)
		}
	}
}

func TestWRLockStarvationFreedomUnderHeavyFailures(t *testing.T) {
	// Every process crashes several times; all requests must still be
	// satisfied (Theorem 4.3).
	plan := &sim.RandomFailures{Rate: 0.01, MaxPerProcess: 3, DuringPassage: true}
	res := mustRun(t, sim.Config{N: 6, Model: memory.CC, Requests: 4, Seed: 33, Plan: plan, MaxSteps: 5_000_000}, wrFactory("wr"))
	if got := len(res.Requests); got != 24 {
		t.Fatalf("%d requests satisfied, want 24", got)
	}
	if res.CrashCount() == 0 {
		t.Fatal("plan injected no failures; test is vacuous")
	}
}

func TestWRLockBoundedRecoveryAndExit(t *testing.T) {
	// BR/BE (Theorem 4.6): Recover and Exit contain no unbounded loops.
	// Run a direct port-level session and count instructions.
	a := memory.NewArena(memory.DSM, 2)
	l := NewWRLock(a, 2, "wr", nil)
	p := a.Port(0, nil)

	before := a.Ops(0)
	l.Recover(p)
	recoverOps := a.Ops(0) - before
	if recoverOps > 10 {
		t.Fatalf("Recover took %d ops, want bounded", recoverOps)
	}
	l.Enter(p)
	before = a.Ops(0)
	l.Exit(p)
	exitOps := a.Ops(0) - before
	if exitOps > 12 {
		t.Fatalf("Exit took %d ops, want bounded", exitOps)
	}
}

func TestWRLockUncontendedSession(t *testing.T) {
	// A single process acquires and releases repeatedly through direct
	// port calls; node allocation keeps the queue consistent.
	a := memory.NewArena(memory.CC, 1)
	l := NewWRLock(a, 1, "wr", nil)
	p := a.Port(0, nil)
	for i := 0; i < 5; i++ {
		l.Recover(p)
		l.Enter(p)
		qs := l.SubQueues(a)
		if len(qs) != 1 || len(qs[0].Owners) != 1 || qs[0].Owners[0] != 0 {
			t.Fatalf("iteration %d: sub-queues = %+v", i, qs)
		}
		if !qs[0].AtTail {
			t.Fatalf("iteration %d: holder's queue not at tail", i)
		}
		l.Exit(p)
		if qs := l.SubQueues(a); len(qs) != 0 {
			t.Fatalf("iteration %d: %d sub-queues after exit", i, len(qs))
		}
	}
}

func TestWRLockAccessors(t *testing.T) {
	a := memory.NewArena(memory.CC, 2)
	l := NewWRLock(a, 2, "filter7", nil)
	if l.Name() != "filter7" {
		t.Fatalf("Name = %q", l.Name())
	}
	if l.FASLabel() != "filter7:fas" {
		t.Fatalf("FASLabel = %q", l.FASLabel())
	}
}

func TestWRLockConstructorValidation(t *testing.T) {
	a := memory.NewArena(memory.CC, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewWRLock(a, 0, "x", nil)
}

// countingSource counts a process's NodeSource calls; its NewNode can be
// made to unwind after handing out a node, as an abort delivered inside
// the epoch wait of a §7.2 pool does.
type countingSource struct {
	*AllocSource
	calls  int
	unwind bool
}

type unwound struct{}

func (s *countingSource) NewNode(p memory.Port) memory.Addr {
	s.calls++
	node := s.AllocSource.NewNode(p)
	if s.unwind {
		panic(unwound{})
	}
	return node
}

func (s *countingSource) Retire(p memory.Port) {
	s.calls++
	s.AllocSource.Retire(p)
}

// TestWRLockAbortFromFreeCallsNoSource: an abort that finds the process
// Free backs out without a NodeSource call — on a fresh lock, after a
// completed passage, and after an abort delivered inside NewNode, which
// leaves the process Free with a node out. A tracing source keeps one
// open span per process, and an abort can land inside NewNode's epoch
// wait, so a source call in that back-out would overwrite the open span.
// The next Enter retires the node left out and takes a fresh one.
func TestWRLockAbortFromFreeCallsNoSource(t *testing.T) {
	a := memory.NewArena(memory.CC, 1)
	src := &countingSource{AllocSource: NewAllocSource(a, 1)}
	l := NewWRLock(a, 1, "wr", src)
	p := a.Port(0, nil)
	abortFree := func(when string) {
		t.Helper()
		src.calls = 0
		l.Abort(p)
		if src.calls != 0 {
			t.Fatalf("%s: Abort from Free made %d NodeSource calls, want 0", when, src.calls)
		}
	}
	abortFree("fresh lock")
	l.Recover(p)
	l.Enter(p)
	l.Exit(p)
	abortFree("after a passage")

	src.unwind = true
	func() {
		defer func() {
			if _, ok := recover().(unwound); !ok {
				t.Fatal("NewNode did not unwind")
			}
		}()
		l.Recover(p)
		l.Enter(p)
	}()
	src.unwind = false
	left := src.PeekNode(a, 0)
	if left == memory.Nil {
		t.Fatal("the unwound NewNode left no node out")
	}
	abortFree("after an abort inside NewNode")

	l.Recover(p)
	l.Enter(p)
	if node := src.PeekNode(a, 0); node == left {
		t.Fatalf("Enter reused node %d left out by the unwound NewNode", node)
	}
	l.Exit(p)
	if node := src.PeekNode(a, 0); node != memory.Nil {
		t.Fatalf("node %d still out after Exit", node)
	}
}
