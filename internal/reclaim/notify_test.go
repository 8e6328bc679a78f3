package reclaim

import (
	"testing"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/sim"
)

func TestNotifyPoolBasics(t *testing.T) {
	a := memory.NewArena(memory.DSM, 3)
	r := NewNotifyPool(a, 3)
	p := a.Port(0, nil)

	n1 := r.NewNode(p)
	n2 := r.NewNode(p)
	if n1 != n2 {
		t.Fatal("NewNode not idempotent")
	}
	r.Retire(p)
	r.Retire(p) // idempotent
	if got := a.Peek(r.seq[0]); got != 2 {
		t.Fatalf("seq = %d", got)
	}
	if n3 := r.NewNode(p); n3 == n1 {
		t.Fatal("retired node handed out again immediately")
	}
}

func TestNotifyPoolWaitsAndWakes(t *testing.T) {
	// Process 1 holds a node; process 0's epoch must block on it — with
	// a registration and a local spin — until process 1 retires, whose
	// scan must acknowledge and unblock process 0.
	const n = 2
	a := memory.NewArena(memory.DSM, n)
	r := NewNotifyPool(a, n)

	p1 := a.Port(1, nil)
	r.NewNode(p1) // pending request of process 1

	alloc := func() (blocked bool) {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(fuseBlown); !ok {
					panic(e)
				}
				blocked = true
			}
		}()
		gp := a.Port(0, &fuseGate{left: 400})
		r.NewNode(gp)
		r.Retire(gp)
		return false
	}
	blocked := false
	for k := 0; k < 6*n+6 && !blocked; k++ {
		blocked = alloc()
	}
	if !blocked {
		t.Fatal("epoch never waited for the pending request")
	}
	// The waiter registered its threshold in process 1's module.
	if got := a.Peek(r.want[1][0]); got == 0 {
		t.Fatal("no registration recorded")
	}
	// Retire by process 1 scans, clears the registration and acks.
	r.Retire(p1)
	if got := a.Peek(r.want[1][0]); got != 0 {
		t.Fatal("registration not cleared by retire scan")
	}
	if got := a.Peek(r.ack[0][1]); got != 1 {
		t.Fatal("acknowledgement not written")
	}
	// The waiter completes promptly now.
	gp := a.Port(0, &fuseGate{left: 400})
	r.NewNode(gp)
	r.Retire(gp)
}

func TestNotifyPoolLocalSpinUnderDSM(t *testing.T) {
	// While blocked, the waiter must accumulate almost no RMRs: its spin
	// word lives in its own module. Drive the waiter into the blocked
	// state and measure the RMR delta over a long spin.
	const n = 2
	a := memory.NewArena(memory.DSM, n)
	r := NewNotifyPool(a, n)
	p1 := a.Port(1, nil)
	r.NewNode(p1)

	spinGate := &fuseGate{left: 1_000}
	gp := a.Port(0, spinGate)
	before := a.RMRs(0)
	func() {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(fuseBlown); !ok {
					panic(e)
				}
			}
		}()
		for k := 0; k < 3*n+3; k++ {
			r.NewNode(gp)
			r.Retire(gp)
		}
	}()
	rmrs := a.RMRs(0) - before
	// ~1000 instructions executed, the tail of them a blocked spin; the
	// RMR count must stay far below the instruction count (a polling
	// pool would pay ~1 RMR per poll under DSM).
	if rmrs > 200 {
		t.Fatalf("waiter spent %d RMRs over ~1000 instructions; spin is not local", rmrs)
	}
	r.Retire(p1)
}

func wrWithNotifyPool(sp memory.Space, n int) sim.Lock {
	return core.NewWRLock(sp, n, "wr", NewNotifyPool(sp, n))
}

func TestWRLockWithNotifyPoolBoundedSpace(t *testing.T) {
	r, err := sim.New(sim.Config{N: 4, Model: memory.DSM, Requests: 30, Seed: 3}, wrWithNotifyPool)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Arena().Size()
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ArenaWords != before {
		t.Fatalf("arena grew from %d to %d words", before, res.ArenaWords)
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("ME violated: overlap %d", res.MaxCSOverlap)
	}
	if got := len(res.Requests); got != 120 {
		t.Fatalf("%d requests, want 120", got)
	}
}

func TestWRLockWithNotifyPoolUnderFailures(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		plan := &sim.RandomFailures{Rate: 0.01, MaxTotal: 6, DuringPassage: true}
		r, err := sim.New(sim.Config{N: 4, Model: memory.DSM, Requests: 12, Seed: seed, Plan: plan,
			MaxSteps: 10_000_000}, wrWithNotifyPool)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(res.Requests); got != 48 {
			t.Fatalf("seed %d: %d requests, want 48", seed, got)
		}
		if res.MaxCSOverlap > res.CrashCount()+1 {
			t.Fatalf("seed %d: overlap %d with %d crashes", seed, res.MaxCSOverlap, res.CrashCount())
		}
	}
}

func TestNotifyPoolCrashAroundRetireScan(t *testing.T) {
	// Crash processes at assorted instruction offsets while using the
	// notify pool; the unconditional retire scan must keep waiters live.
	for at := int64(0); at < 80; at += 4 {
		plan := &sim.CrashAtOp{PID: 1, OpIndex: at}
		r, err := sim.New(sim.Config{N: 3, Model: memory.DSM, Requests: 10, Seed: 9, Plan: plan,
			MaxSteps: 10_000_000}, wrWithNotifyPool)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("at=%d: %v", at, err)
		}
		if got := len(res.Requests); got != 30 {
			t.Fatalf("at=%d: %d requests, want 30", at, got)
		}
	}
}
