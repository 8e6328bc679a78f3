package yalock

import (
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
)

// sideLock adapts the dual-port arbitrator to sim.Lock for two processes:
// pid 0 uses the Left port, pid 1 the Right port. This matches the
// framework's contract (one process per side at a time).
type sideLock struct {
	a *Arbitrator
}

func newSideLock(sp memory.Space, n int) sim.Lock {
	return &sideLock{a: New(sp, n)}
}

func (l *sideLock) side(p memory.Port) Side {
	if p.PID() == 0 {
		return Left
	}
	return Right
}

func (l *sideLock) Recover(p memory.Port) { l.a.Recover(p, l.side(p)) }
func (l *sideLock) Enter(p memory.Port)   { l.a.Enter(p, l.side(p)) }
func (l *sideLock) Exit(p memory.Port)    { l.a.Exit(p, l.side(p)) }

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

func TestSideString(t *testing.T) {
	if Left.String() != "left" || Right.String() != "right" {
		t.Fatal("side names broken")
	}
	if Side(3).String() != "Side(3)" {
		t.Fatal("unknown side name broken")
	}
}

func TestArbitratorMutualExclusion(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for seed := int64(0); seed < 10; seed++ {
			res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 8, Seed: seed}, newSideLock)
			if res.MaxCSOverlap != 1 {
				t.Fatalf("[%v seed=%d] ME violated: overlap %d", model, seed, res.MaxCSOverlap)
			}
			if got := len(res.Requests); got != 16 {
				t.Fatalf("[%v seed=%d] %d requests satisfied, want 16", model, seed, got)
			}
		}
	}
}

func TestArbitratorConstantRMRs(t *testing.T) {
	// O(1) RMRs per passage under both models, even under contention.
	const bound = 26
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 20, Seed: 3}, newSideLock)
		s := res.SummarizePassageRMRs(nil)
		if s.Max > bound {
			t.Fatalf("[%v] max RMRs per passage = %d, want ≤ %d", model, s.Max, bound)
		}
	}
}

func TestArbitratorCrashEverywhere(t *testing.T) {
	// Crash each side at every possible instruction offset in turn;
	// mutual exclusion and progress must always survive (strong
	// recoverability). This sweeps crashes across the doorway, the
	// waiting loop, the CS and the exit protocol.
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for pid := 0; pid < 2; pid++ {
			for at := int64(0); at < 40; at++ {
				plan := &sim.CrashAtOp{PID: pid, OpIndex: at}
				res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 3, Seed: 5, Plan: plan}, newSideLock)
				if res.MaxCSOverlap != 1 {
					t.Fatalf("[%v pid=%d at=%d] ME violated: overlap %d", model, pid, at, res.MaxCSOverlap)
				}
				if got := len(res.Requests); got != 6 {
					t.Fatalf("[%v pid=%d at=%d] %d requests satisfied, want 6", model, pid, at, got)
				}
			}
		}
	}
}

func TestArbitratorRepeatedCrashes(t *testing.T) {
	plan := &sim.RandomFailures{Rate: 0.03, MaxPerProcess: 4, DuringPassage: true}
	res := mustRun(t, sim.Config{N: 2, Model: memory.CC, Requests: 6, Seed: 11, Plan: plan}, newSideLock)
	if res.MaxCSOverlap != 1 {
		t.Fatalf("ME violated under repeated crashes: overlap %d", res.MaxCSOverlap)
	}
	if got := len(res.Requests); got != 12 {
		t.Fatalf("%d requests satisfied, want 12", got)
	}
	if res.CrashCount() == 0 {
		t.Fatal("no crashes injected; test is vacuous")
	}
}

func TestArbitratorCrashInCSReentry(t *testing.T) {
	// BCSR: the occupant that crashed in its CS re-enters before the
	// rival gets in.
	plan := sim.PlanFunc(func(ctx sim.StepCtx) bool {
		return ctx.PID == 0 && ctx.InCS && ctx.ProcCrashes == 0
	})
	res := mustRun(t, sim.Config{N: 2, Model: memory.DSM, Requests: 2, Seed: 2, Plan: plan}, newSideLock)
	crashSeq := res.Crashes[0].Seq
	for _, ev := range res.Events {
		if ev.Seq > crashSeq && ev.Kind == sim.EvCSEnter {
			if ev.PID != 0 {
				t.Fatalf("rival %d entered CS before crashed process re-entered", ev.PID)
			}
			break
		}
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("overlap %d", res.MaxCSOverlap)
	}
}

func TestArbitratorSequentialPortUse(t *testing.T) {
	// Different processes may occupy the same side across acquisitions.
	a := memory.NewArena(memory.CC, 4)
	arb := New(a, 4)
	for _, pid := range []int{0, 2, 3, 1} {
		p := a.Port(pid, nil)
		arb.Recover(p, Left)
		arb.Enter(p, Left)
		if h := arb.Holder(a); h != Left {
			t.Fatalf("holder = %v, want left", h)
		}
		arb.Exit(p, Left)
		if h := arb.Holder(a); h != Side(-1) {
			t.Fatalf("holder after exit = %v, want none", h)
		}
	}
}

func TestArbitratorExitIdempotent(t *testing.T) {
	a := memory.NewArena(memory.CC, 2)
	arb := New(a, 2)
	p := a.Port(0, nil)
	arb.Enter(p, Left)
	arb.Exit(p, Left)
	ops := a.Ops(0)
	arb.Exit(p, Left) // second exit is a guarded no-op
	if a.Ops(0) > ops+2 {
		t.Fatalf("re-exit performed %d ops, want ≤ 2", a.Ops(0)-ops)
	}
}

func TestArbitratorReentryAfterCSCrashDirect(t *testing.T) {
	a := memory.NewArena(memory.DSM, 2)
	arb := New(a, 2)
	p := a.Port(0, nil)
	arb.Enter(p, Right)
	// Simulate a crash in the CS: private state is lost, the process
	// re-runs Recover+Enter on the same side.
	before := a.Ops(0)
	arb.Recover(p, Right)
	arb.Enter(p, Right)
	if got := a.Ops(0) - before; got > 6 {
		t.Fatalf("re-entry took %d ops, want bounded fast path", got)
	}
	arb.Exit(p, Right)
}

func TestArbitratorContractViolationPanics(t *testing.T) {
	a := memory.NewArena(memory.CC, 2)
	arb := New(a, 2)
	p0 := a.Port(0, nil)
	p1 := a.Port(1, nil)
	arb.Enter(p0, Left)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when a second process enters an occupied side in CS")
		}
	}()
	arb.Enter(p1, Left)
}

func TestArbitratorConstructorValidation(t *testing.T) {
	a := memory.NewArena(memory.CC, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	New(a, 0)
}

func TestArbitratorBothSidesSequential(t *testing.T) {
	// One process may use different sides in different passages (e.g. a
	// process that takes the fast path now and the slow path later).
	a := memory.NewArena(memory.DSM, 1)
	arb := New(a, 1)
	p := a.Port(0, nil)
	for i := 0; i < 3; i++ {
		s := Side(i % 2)
		arb.Recover(p, s)
		arb.Enter(p, s)
		arb.Exit(p, s)
	}
}

func TestTwoProcessAdapter(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for seed := int64(0); seed < 4; seed++ {
			plan := &sim.RandomFailures{Rate: 0.02, MaxPerProcess: 2, DuringPassage: true}
			res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 5, Seed: seed, Plan: plan},
				func(sp memory.Space, n int) sim.Lock { return NewTwoProcess(sp, n) })
			if res.MaxCSOverlap != 1 {
				t.Fatalf("[%v seed=%d] ME violated", model, seed)
			}
			if got := len(res.Requests); got != 10 {
				t.Fatalf("[%v seed=%d] %d requests, want 10", model, seed, got)
			}
		}
	}
}

func TestTwoProcessValidation(t *testing.T) {
	a := memory.NewArena(memory.CC, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n != 2")
		}
	}()
	NewTwoProcess(a, 3)
}

func TestArbitratorLeavingCleanupByNextEntrant(t *testing.T) {
	// Simulate a crash between who:=0 and sstate:=idle in a previous
	// occupant's exit: the next entrant of the side finishes the repair.
	a := memory.NewArena(memory.CC, 2)
	arb := New(a, 2)
	p0 := a.Port(0, nil)
	arb.Enter(p0, Left)
	arb.Exit(p0, Left)
	// Manually wind the side back into the "leaving, occupant cleared"
	// state the crash would leave behind.
	w := a.Port(0, nil)
	w.Write(arb.sstate[Left], ssLeaving)
	p1 := a.Port(1, nil)
	arb.Enter(p1, Left) // must repair and acquire
	if got := a.Peek(arb.sstate[Left]); got != ssInCS {
		t.Fatalf("state after repair-enter = %d", got)
	}
	arb.Exit(p1, Left)
}

// lineHomes is a Space that records, for every cache line an allocation
// touches, the home of each allocation on it.
type lineHomes struct {
	memory.Space
	homes map[memory.Addr][]int
}

func (l *lineHomes) Alloc(nwords, home int) memory.Addr {
	a := l.Space.Alloc(nwords, home)
	for line := a / memory.LineWords; line <= (a+memory.Addr(nwords)-1)/memory.LineWords; line++ {
		l.homes[line] = append(l.homes[line], home)
	}
	return a
}

// TestArbitratorLayout: the seven shared words are consecutive, in the
// order turn, then flag, who and sstate of each side, so the simulated
// arena gives them the addresses it gave seven one-word allocations. In
// a sized native arena they share one line that holds no other word, and
// each spin[i] lies in process i's stripe.
func TestArbitratorLayout(t *testing.T) {
	const n, arbs = 8, 3
	build := func(sp memory.Space) []*Arbitrator {
		as := make([]*Arbitrator, arbs)
		for k := range as {
			as[k] = New(sp, n)
		}
		return as
	}
	sizer := memory.NewNativeSizer(n, true)
	build(sizer)
	sp := &lineHomes{Space: memory.NewNativeArena(n, sizer.Words()), homes: map[memory.Addr][]int{}}
	for k, a := range build(sp) {
		shared := []memory.Addr{a.turn, a.flag[0], a.who[0], a.sstate[0], a.flag[1], a.who[1], a.sstate[1]}
		for j, w := range shared {
			if w != a.turn+memory.Addr(j) {
				t.Errorf("arbitrator %d: shared word %d at %d, want %d", k, j, w, a.turn+memory.Addr(j))
			}
		}
		line := a.turn / memory.LineWords
		if last := shared[len(shared)-1] / memory.LineWords; last != line {
			t.Errorf("arbitrator %d: shared words span lines %d..%d", k, line, last)
		}
		if got := sp.homes[line]; len(got) != 1 || got[0] != memory.HomeNone {
			t.Errorf("arbitrator %d: shared line %d holds allocations of homes %v, want only its own", k, line, got)
		}
		for i, w := range a.spin {
			for _, h := range sp.homes[w/memory.LineWords] {
				if h != i {
					t.Errorf("arbitrator %d: spin[%d]'s line holds a word of home %d", k, i, h)
				}
			}
		}
	}
}
