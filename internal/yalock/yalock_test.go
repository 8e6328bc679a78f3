package yalock

import (
	"math/rand"
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

func (l *sideLock) Recover(p memory.Port) {}
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
	// re-runs Enter on the same side.
	before := a.Ops(0)
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

// exitWindow drives the one window an Exit can leave behind: p0 holds
// the lock, p1 is waiting on its spin word, and p0 crashes right after
// its Exit's write, before its signal. It is both the run's scheduler and
// its failure plan: p0 runs until it is in its CS, then p1 until it
// spins, then p0 until the crash; after that both run in turn.
//
// With abort set, the plan also aborts p0's restarted passage at its
// first instruction, and once p0 has backed out only p1 runs, for up to
// soloSteps steps: p1 gets in then only if the back-out itself signalled
// it, since p0's retry, which would signal it again, has not yet run.
type exitWindow struct {
	arb     *Arbitrator
	rr      sim.RoundRobin
	p0InCS  bool
	p1Reads int // p1's reads of spin[1]; the second is inside its wait loop
	p0Freed bool
	fired   bool

	abort        bool
	aborted      bool
	abortAttempt int
	backedOut    bool // p0 has backed out and its retry has been picked
	soloSteps    int  // steps p1 may still run alone after the back-out
	p1SoloInCS   bool // p1 entered its CS while running alone
}

func (w *exitWindow) Pick(rng *rand.Rand, ready []int) int {
	want := -1
	switch {
	case w.backedOut && w.soloSteps > 0:
		want = 1
	case w.aborted:
	case w.fired && w.abort:
		want = 0 // p0 restarts and is aborted at its first instruction
	case w.fired:
	case !w.p0InCS || w.p1Reads >= 2:
		want = 0
	default:
		want = 1
	}
	for _, pid := range ready {
		if pid == want {
			if want == 1 && w.backedOut {
				w.soloSteps--
			}
			return pid
		}
	}
	return w.rr.Pick(rng, ready)
}

func (w *exitWindow) Observe(ctx sim.StepCtx) {
	switch {
	case ctx.PID == 0 && ctx.InCS:
		w.p0InCS = true
	case ctx.PID == 1 && ctx.InCS && w.backedOut && w.soloSteps > 0:
		w.p1SoloInCS = true
	case ctx.PID == 1 && ctx.Op.Kind == memory.OpRead && ctx.Op.Addr == w.arb.spin[1]:
		w.p1Reads++
	case ctx.PID == 0 && w.p0InCS && ctx.Op.Kind == memory.OpWrite && ctx.Op.Addr == w.arb.side[Left]:
		w.p0Freed = true // the Exit's one write
	}
}

// Crash fires at the signal's read of the rival's side, the instruction
// after the Exit's write. It is consulted at every instruction granted,
// so it also notes when p0's retry, the passage after the aborted one,
// is picked.
func (w *exitWindow) Crash(ctx sim.StepCtx) bool {
	if w.aborted && ctx.PID == 0 && ctx.Attempt > w.abortAttempt && !w.backedOut {
		w.backedOut = true
		w.soloSteps = 1000
	}
	if w.fired || !w.p0Freed || ctx.PID != 0 || ctx.Op.Kind != memory.OpRead || ctx.Op.Addr != w.arb.side[Right] {
		return false
	}
	w.fired = true
	return true
}

// Abort fires, with abort set, at the first instruction of p0's
// restarted passage.
func (w *exitWindow) Abort(ctx sim.StepCtx) bool {
	if !w.abort || !w.fired || w.aborted || ctx.PID != 0 {
		return false
	}
	w.aborted = true
	w.abortAttempt = ctx.Attempt
	return true
}

// TestArbitratorExitCrashBeforeSignal: a side leaves InCS in one write,
// so the only state a crashed Exit leaves is a lost wake-up. The retry's
// doorway signals the rival again; without that signal both processes
// wait for each other.
func TestArbitratorExitCrashBeforeSignal(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		w := &exitWindow{}
		res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 1, Sched: w, Plan: w, MaxSteps: 100_000},
			func(sp memory.Space, n int) sim.Lock {
				l := &sideLock{a: New(sp, n)}
				w.arb = l.a
				return l
			})
		if !w.fired || res.CrashCount() != 1 {
			t.Fatalf("[%v] crash fired %v, %d crashes; want the one crash between Exit's write and its signal", model, w.fired, res.CrashCount())
		}
		if res.MaxCSOverlap != 1 {
			t.Fatalf("[%v] ME violated: overlap %d", model, res.MaxCSOverlap)
		}
		if got := len(res.Requests); got != 2 {
			t.Fatalf("[%v] %d requests satisfied, want 2", model, got)
		}
	}
}

// TestArbitratorAbortAfterExitCrashSignals: p0 crashes between its
// Exit's write and its signal, and an abort lands on the first
// instruction of its restarted passage, before the doorway that would
// signal again. The back-out runs Exit on a side p0 no longer occupies;
// that Exit must still signal, or p1 waits until p0 happens to retry. In
// the SA-Lock p0's retry can wait on p1 in the filter, and then neither
// ever runs again.
func TestArbitratorAbortAfterExitCrashSignals(t *testing.T) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		w := &exitWindow{abort: true}
		res := mustRun(t, sim.Config{N: 2, Model: model, Requests: 1, Sched: w, Plan: w, MaxSteps: 100_000},
			func(sp memory.Space, n int) sim.Lock {
				l := NewTwoProcess(sp, n)
				w.arb = l.a
				return l
			})
		if !w.fired || !w.aborted || !w.backedOut || res.CrashCount() != 1 || len(res.Aborts) != 1 {
			t.Fatalf("[%v] crash %v, abort %v, backed out %v (%d crashes, %d aborts); want one crash in the Exit window and one abort at the restart",
				model, w.fired, w.aborted, w.backedOut, res.CrashCount(), len(res.Aborts))
		}
		if at := res.Aborts[0].OpIndex; at != res.Crashes[0].OpIndex {
			t.Fatalf("[%v] abort at instruction %d, want the restart's first, %d", model, at, res.Crashes[0].OpIndex)
		}
		if !w.p1SoloInCS {
			t.Fatalf("[%v] p0's back-out did not wake p1: p1 ran alone for 1000 steps without entering its CS", model)
		}
		if res.MaxCSOverlap != 1 {
			t.Fatalf("[%v] ME violated: overlap %d", model, res.MaxCSOverlap)
		}
		if got := len(res.Requests); got != 2 {
			t.Fatalf("[%v] %d requests satisfied, want 2", model, got)
		}
	}
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

// TestArbitratorLayout: the three shared words are consecutive, in the
// order turn, then each side's word, so the simulated arena gives them
// the addresses it gave three one-word allocations. In a sized native
// arena they share one line that holds no other word, and each spin[i]
// lies in process i's stripe.
func TestArbitratorLayout(t *testing.T) {
	const n, arbs = 8, 3
	build := func(sp memory.Space) []*Arbitrator {
		as := make([]*Arbitrator, arbs)
		for k := range as {
			as[k] = New(sp, n)
		}
		return as
	}
	// One allocation of exactly three words: the first spin word follows.
	if a := New(memory.NewArena(memory.CC, n), n); a.spin[0] != a.turn+3 {
		t.Fatalf("shared allocation is %d words, want 3", a.spin[0]-a.turn)
	}
	sizer := memory.NewNativeSizer(n, true)
	build(sizer)
	sp := &lineHomes{Space: memory.NewNativeArena(n, sizer.Words()), homes: map[memory.Addr][]int{}}
	for k, a := range build(sp) {
		shared := []memory.Addr{a.turn, a.side[Left], a.side[Right]}
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
