package core

import (
	"math/rand"
	"slices"
	"testing"

	"rme/internal/grlock"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/yalock"
)

func saFactory(sp memory.Space, n int) sim.Lock {
	return NewSALock(sp, n, "SA", grlock.NewTournament(sp, n), nil)
}

func TestSALockFailureFree(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, n := range []int{1, 2, 4, 8} {
			res := mustRun(t, sim.Config{N: n, Model: model, Requests: 4, Seed: int64(n)}, saFactory)
			if res.MaxCSOverlap != 1 {
				t.Fatalf("[%v n=%d] ME violated: overlap %d", model, n, res.MaxCSOverlap)
			}
			if got := len(res.Requests); got != 4*n {
				t.Fatalf("[%v n=%d] %d requests, want %d", model, n, got, 4*n)
			}
		}
	}
}

func TestSALockConstantRMRsWithoutFailures(t *testing.T) {
	// Theorem 5.6 first half: failure-free passages cost O(1) —
	// independent of n — because every process takes the fast path.
	const bound = 45
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		var prev int64
		for _, n := range []int{2, 8, 32} {
			res := mustRun(t, sim.Config{N: n, Model: model, Requests: 5, Seed: 3}, saFactory)
			s := res.SummarizePassageRMRs(nil)
			if s.Max > bound {
				t.Fatalf("[%v n=%d] max RMRs = %d, want ≤ %d", model, n, s.Max, bound)
			}
			if prev != 0 && s.Max > prev+4 {
				t.Fatalf("[%v] failure-free RMRs grew with n: %d → %d", model, prev, s.Max)
			}
			prev = s.Max
		}
	}
}

func TestSALockNoSlowPathWithoutFailures(t *testing.T) {
	res := mustRun(t, sim.Config{N: 6, Model: memory.CC, Requests: 4, Seed: 5, RecordOps: true}, saFactory)
	for _, ev := range res.Events {
		if ev.Kind == sim.EvOp && ev.Op.Label == "SA:slow" {
			t.Fatal("a process took the slow path without any failure")
		}
	}
}

func TestSALockUnsafeFailureDivertsToSlowPath(t *testing.T) {
	// An unsafe failure of the filter lets several processes through; all
	// but one divert to the slow path, and ME of the target lock holds
	// (Theorem 5.1).
	plan := &sim.CrashOnLabel{PID: 1, Label: "SA:fas", After: true}
	res := mustRun(t, sim.Config{N: 6, Model: memory.CC, Requests: 3, Seed: 11, Plan: plan, RecordOps: true, CSOps: 4}, saFactory)
	if res.CrashCount() != 1 {
		t.Fatalf("%d crashes, want 1", res.CrashCount())
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("ME violated: overlap %d", res.MaxCSOverlap)
	}
	if got := len(res.Requests); got != 18 {
		t.Fatalf("%d requests, want 18", got)
	}
	slow := 0
	for _, ev := range res.Events {
		if ev.Kind == sim.EvOp && ev.Op.Label == "SA:slow" {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("no process took the slow path despite an unsafe failure")
	}
}

func TestSALockCrashSweep(t *testing.T) {
	// Strong recoverability: crash a process at each of a sweep of
	// instruction offsets; ME and progress must survive.
	for _, pid := range []int{0, 2} {
		for at := int64(0); at < 80; at += 2 {
			plan := &sim.CrashAtOp{PID: pid, OpIndex: at}
			res := mustRun(t, sim.Config{N: 4, Model: memory.DSM, Requests: 2, Seed: 13, Plan: plan,
				MaxSteps: 5_000_000}, saFactory)
			if res.MaxCSOverlap != 1 {
				t.Fatalf("pid=%d at=%d: ME violated", pid, at)
			}
			if got := len(res.Requests); got != 8 {
				t.Fatalf("pid=%d at=%d: %d requests, want 8", pid, at, got)
			}
		}
	}
}

func TestSALockRandomCrashes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		plan := &sim.RandomFailures{Rate: 0.005, MaxTotal: 10, DuringPassage: true}
		res := mustRun(t, sim.Config{N: 6, Model: memory.CC, Requests: 3, Seed: seed, Plan: plan,
			MaxSteps: 5_000_000}, saFactory)
		if res.MaxCSOverlap != 1 {
			t.Fatalf("seed=%d: ME violated with %d crashes", seed, res.CrashCount())
		}
		if got := len(res.Requests); got != 18 {
			t.Fatalf("seed=%d: %d requests, want 18", seed, got)
		}
	}
}

func TestSALockCrashInCSReentry(t *testing.T) {
	// BCSR (Theorem 5.3).
	plan := sim.PlanFunc(func(ctx sim.StepCtx) bool {
		return ctx.PID == 2 && ctx.InCS && ctx.ProcCrashes == 0
	})
	res := mustRun(t, sim.Config{N: 4, Model: memory.CC, Requests: 2, Seed: 3, Plan: plan}, saFactory)
	crashSeq := res.Crashes[0].Seq
	for _, ev := range res.Events {
		if ev.Seq > crashSeq && ev.Kind == sim.EvCSEnter {
			if ev.PID != 2 {
				t.Fatalf("process %d entered CS before crashed holder re-entered", ev.PID)
			}
			break
		}
	}
}

// claimRun is an n = 2 SA-Lock named F1, as BA-Lock names its first
// level, driven on the simulator with every instruction recorded. Its
// scheduler runs the process in want whenever it is ready, and on
// observes each event before the run goes on.
type claimRun struct {
	l     *SALock
	arena *memory.Arena
	want  int
	on    func(ev sim.Event)
}

func (c *claimRun) Pick(_ *rand.Rand, ready []int) int {
	if slices.Contains(ready, c.want) {
		return c.want
	}
	return ready[0]
}

func (c *claimRun) run(t *testing.T, model memory.Model, plan sim.FailurePlan) *sim.Result {
	t.Helper()
	res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 1, Seed: 1, Sched: c, Plan: plan, RecordOps: true,
		OnEvent: func(ev sim.Event, _ *memory.Arena) {
			if c.on != nil {
				c.on(ev)
			}
		}}, func(sp memory.Space, n int) sim.Lock {
		c.arena = sp.(*memory.Arena)
		c.l = NewSALock(sp, n, "F1", grlock.NewTournament(sp, n), nil)
		return c.l
	})
	if res.MaxCSOverlap != 1 {
		t.Fatalf("%v: ME violated: overlap %d", model, res.MaxCSOverlap)
	}
	if got := len(res.Requests); got != 2 {
		t.Fatalf("%v: %d requests satisfied, want 2", model, got)
	}
	return res
}

// ops returns pid's recorded instructions.
func ops(res *sim.Result, pid int) []memory.OpInfo {
	var out []memory.OpInfo
	for _, ev := range res.Events {
		if ev.Kind == sim.EvOp && ev.PID == pid {
			out = append(out, ev.Op)
		}
	}
	return out
}

// labelled counts the instructions in ops carrying label.
func labelled(ops []memory.OpInfo, label string) int {
	n := 0
	for _, op := range ops {
		if op.Label == label {
			n++
		}
	}
	return n
}

// TestSALockClaimAfterUnsafeFailure: p1 crashes right after its filter
// FAS while p0 holds the lock, relinquishes the stranded node and passes
// the filter a second time, so the filter has two winners. Exactly one
// claim of the Left side wins (p0's); p1's fails, and p1 commits to the
// slow path and waits at the arbitrator's Right side until p0 exits.
func TestSALockClaimAfterUnsafeFailure(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		c := &claimRun{}
		twoWinners := false
		c.on = func(ev sim.Event) {
			switch {
			case ev.Kind == sim.EvCSEnter && ev.PID == 0 && c.want == 0:
				c.want = 1 // p0 holds the lock: run p1
			case ev.Kind == sim.EvOp && ev.PID == 1 && ev.Op.Label == "F1:slow":
				w0, w1 := c.arena.Peek(c.l.filter.st[0]), c.arena.Peek(c.l.filter.st[1])
				twoWinners = w0&stateMask == stateInCS && w1&stateMask == stateInCS
				c.want = 0 // p1 waits at the arbitrator: let p0 exit
			}
		}
		res := c.run(t, model, &sim.CrashOnLabel{PID: 1, Label: "F1:fas", After: true})
		if res.CrashCount() != 1 {
			t.Fatalf("%v: %d crashes, want 1", model, res.CrashCount())
		}
		if !twoWinners {
			t.Fatalf("%v: p1 committed to the slow path without two filter winners", model)
		}
		p0, p1 := ops(res, 0), ops(res, 1)
		if labelled(p0, "F1:try") != 1 || labelled(p0, "F1:slow") != 0 {
			t.Fatalf("%v: p0 claimed %d times and went slow %d times, want 1 and 0", model,
				labelled(p0, "F1:try"), labelled(p0, "F1:slow"))
		}
		if labelled(p1, "F1:try") != 1 || labelled(p1, "F1:slow") != 1 {
			t.Fatalf("%v: p1 claimed %d times and went slow %d times, want 1 and 1", model,
				labelled(p1, "F1:try"), labelled(p1, "F1:slow"))
		}
	}
}

// TestSALockClaimCrashKeepsSide: p0 crashes right after the CAS that won
// the Left side. Its restarted claim's CAS fails, the read that follows
// finds p0 itself, and the passage completes on the fast path without
// writing the side's intent a second time: the side is written only to
// enter (InCS) and to exit (Idle).
func TestSALockClaimCrashKeepsSide(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		c := &claimRun{}
		res := c.run(t, model, &sim.CrashOnLabel{PID: 0, Label: "F1:try", After: true})
		if res.CrashCount() != 1 {
			t.Fatalf("%v: %d crashes, want 1", model, res.CrashCount())
		}
		p0 := ops(res, 0)
		if labelled(p0, "F1:slow") != 0 {
			t.Fatalf("%v: p0 lost the fast path to its own crash", model)
		}
		var side memory.Addr
		var onSide []memory.OpKind
		for _, op := range p0 {
			if op.Label == "F1:try" {
				side = op.Addr
			}
			if side != 0 && op.Addr == side {
				onSide = append(onSide, op.Kind)
			}
		}
		// The claim, then after the crash: the claim's failed CAS and its
		// read, Enter's read and InCS write, Exit's read and Idle write.
		want := []memory.OpKind{memory.OpCAS, memory.OpCAS, memory.OpRead, memory.OpRead, memory.OpWrite, memory.OpRead, memory.OpWrite}
		if !slices.Equal(onSide, want) {
			t.Fatalf("%v: p0's instructions on the Left side: %v, want %v", model, onSide, want)
		}
	}
}

// abortAfterLabel aborts pid right after its first instruction labelled
// label.
type abortAfterLabel struct {
	pid     int
	label   string
	pending bool
	done    bool
}

func (a *abortAfterLabel) Crash(sim.StepCtx) bool { return false }

func (a *abortAfterLabel) Observe(ctx sim.StepCtx) {
	if !a.done && ctx.PID == a.pid && ctx.IsOp && ctx.Op.Label == a.label {
		a.pending, a.done = true, true
	}
}

func (a *abortAfterLabel) Abort(ctx sim.StepCtx) bool {
	if a.pending && ctx.PID == a.pid {
		a.pending = false
		return true
	}
	return false
}

// TestSALockClaimAbortFreesSide: p0 is aborted right after the CAS that
// won the Left side. Its back-out's arbitrator Exit clears the side, and
// p1's next claim wins it: p1 enters on the fast path.
func TestSALockClaimAbortFreesSide(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		c := &claimRun{}
		var side memory.Addr
		cleared, p1Fast := false, false
		c.on = func(ev sim.Event) {
			switch {
			case ev.Kind == sim.EvOp && ev.Op.Label == "F1:try":
				side = ev.Op.Addr
			case ev.Kind == sim.EvAborted && ev.PID == 0:
				cleared = c.arena.Peek(side) == 0
				c.want = 1 // run the rival through its passage
			case ev.Kind == sim.EvCSEnter && ev.PID == 1:
				p1Fast = c.l.arb.Holder(c.arena) == yalock.Left
			}
		}
		res := c.run(t, model, &abortAfterLabel{pid: 0, label: "F1:try"})
		if len(res.Aborts) != 1 || res.Aborts[0].PID != 0 {
			t.Fatalf("%v: aborts %+v, want one of p0", model, res.Aborts)
		}
		if !cleared {
			t.Fatalf("%v: p0's back-out left the Left side occupied", model)
		}
		if !p1Fast || labelled(ops(res, 1), "F1:slow") != 0 {
			t.Fatalf("%v: p1's claim after the back-out did not win the fast path", model)
		}
	}
}

func TestSALockAccessors(t *testing.T) {
	a := memory.NewArena(memory.CC, 2)
	l := NewSALock(a, 2, "X", grlock.NewTournament(a, 2), nil)
	if l.Name() != "X" || l.SlowLabel() != "X:slow" {
		t.Fatal("naming broken")
	}
	if l.Filter() == nil || l.Core() == nil {
		t.Fatal("component accessors broken")
	}
	if l.Describe() == "" {
		t.Fatal("empty description")
	}
	l.Recover(a.Port(0, nil)) // no-op by construction
}

func TestSALockRequiresCore(t *testing.T) {
	a := memory.NewArena(memory.CC, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil core")
		}
	}()
	NewSALock(a, 1, "X", nil, nil)
}
