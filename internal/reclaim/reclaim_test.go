package reclaim

import (
	"slices"
	"testing"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/sim"
)

func TestNewNodeIdempotent(t *testing.T) {
	a := memory.NewArena(memory.CC, 3)
	r := NewPool(a, 3)
	p := a.Port(0, nil)

	n1 := r.NewNode(p)
	n2 := r.NewNode(p) // crash-retry before Retire: same node
	if n1 != n2 {
		t.Fatalf("NewNode not idempotent: %d then %d", n1, n2)
	}
	if got := r.Outstanding(a, 0); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
	r.Retire(p)
	if got := r.Outstanding(a, 0); got != 0 {
		t.Fatalf("Outstanding after retire = %d, want 0", got)
	}
	n3 := r.NewNode(p)
	if n3 == n1 {
		t.Fatal("next allocation returned the just-retired node")
	}
}

func TestRetireIdempotent(t *testing.T) {
	a := memory.NewArena(memory.CC, 2)
	r := NewPool(a, 2)
	p := a.Port(0, nil)
	r.NewNode(p)
	r.Retire(p)
	r.Retire(p) // crash-retry of Exit: no double retire
	if got := a.Peek(r.seq[0]); got != 2 {
		t.Fatalf("seq = %d, want 2", got)
	}
}

func TestNodesDistinctWithinWindow(t *testing.T) {
	// Allocation a hands out slot a mod 2n: consecutive allocations (with
	// retires) hand out 2n distinct nodes, and a node comes back at
	// exactly allocation a+2n, never sooner.
	for _, n := range []int{1, 2, 3, 4, 5} {
		a := memory.NewArena(memory.CC, n)
		r := NewPool(a, n)
		p := a.Port(n-1, nil)
		last := map[memory.Addr]int{}
		for k := 0; k < 6*n; k++ {
			node := r.NewNode(p)
			if prev, ok := last[node]; ok && k-prev != 2*n {
				t.Fatalf("n=%d: node %d handed out at allocations %d and %d, want %d apart", n, node, prev, k, 2*n)
			} else if !ok && k >= 2*n {
				t.Fatalf("n=%d: allocation %d handed out a node unseen in the first lap", n, k)
			}
			last[node] = k
			r.Retire(p)
		}
		if len(last) != 2*n {
			t.Fatalf("n=%d: %d distinct nodes, want %d", n, len(last), 2*n)
		}
	}
}

// fuseGate aborts (panics) after a fixed number of instructions; tests use
// it to prove a call would block without actually blocking the test.
type fuseGate struct{ left int }

type fuseBlown struct{}

func (g *fuseGate) Step(pid int, op memory.OpInfo) {
	g.left--
	if g.left < 0 {
		panic(fuseBlown{})
	}
}

func TestEpochWaitsForPendingRequest(t *testing.T) {
	// Process 1 holds an un-retired node. Once process 0's epoch has
	// recorded it, process 0's allocation n later that looks at process
	// 1 again must spin until process 1 retires.
	const n = 2
	a := memory.NewArena(memory.CC, n)
	r := NewPool(a, n)

	p1 := a.Port(1, nil)
	r.NewNode(p1) // pending request of process 1

	// Drive process 0's allocations with a step fuse: once an epoch
	// step waits for process 1's recorded request, the allocation spins
	// and the fuse blows.
	alloc := func() (blocked bool) {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(fuseBlown); !ok {
					panic(e)
				}
				blocked = true
			}
		}()
		gp := a.Port(0, &fuseGate{left: 300})
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
	if rec := a.Peek(r.snapshot[0][1]); rec == 0 || rec != a.Peek(r.seq[1]) {
		t.Fatal("blocked, but not on process 1's pending request")
	}
	// Still blocked on retry (the wait is real, not transient).
	if !alloc() {
		t.Fatal("epoch stopped waiting while the request is still pending")
	}

	// After process 1 retires, the allocation completes promptly.
	r.Retire(p1)
	gp := a.Port(0, &fuseGate{left: 200})
	r.NewNode(gp)
	r.Retire(gp)
}

func TestWords(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		a := memory.NewArena(memory.CC, n)
		r := NewPool(a, n)
		// n(5n+1): 2n two-word nodes, seq and n snapshot words per
		// process; the arena's word 0 is Nil.
		if want := n * (5*n + 1); r.Words() != want || a.Size() != 1+want {
			t.Fatalf("n=%d: Words() = %d, arena %d words, want %d (+1 for Nil)", n, r.Words(), a.Size(), want)
		}
	}
}

func TestPoolValidation(t *testing.T) {
	a := memory.NewArena(memory.CC, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewPool(a, 0)
}

// wrWithPool builds the weakly recoverable lock over the reclamation pool,
// the combination the paper describes in Section 7.2.
func wrWithPool(sp memory.Space, n int) sim.Lock {
	return core.NewWRLock(sp, n, "wr", NewPool(sp, n))
}

// handOuts wraps a node source and tells handed of every node it hands
// out; WRLock also calls NewNode to name the node it already holds.
type handOuts struct {
	core.NodeSource
	held   []memory.Addr
	handed func(pid int, node memory.Addr)
}

func (s *handOuts) NewNode(p memory.Port) memory.Addr {
	node := s.NodeSource.NewNode(p)
	if node != s.held[p.PID()] {
		s.held[p.PID()] = node
		s.handed(p.PID(), node)
	}
	return node
}

func (s *handOuts) Retire(p memory.Port) {
	s.NodeSource.Retire(p)
	s.held[p.PID()] = memory.Nil
}

// TestWRLockWithPoolBoundedSpace: with reclamation the arena must not
// grow during the run, since all nodes come from the pre-allocated
// pools. A node the ring hands out again still holds what its previous
// use left: granted = 1 if its owner was handed the lock, next = the
// successor that linked behind it. Enter must reset both (next = Nil,
// granted = 0) before it writes (node, Trying), since a crash after that
// write makes Recover relinquish the node through Exit, which reads
// next.
func TestWRLockWithPoolBoundedSpace(t *testing.T) {
	const n = 4
	var (
		arena *memory.Arena
		out   = make([]memory.Addr, n) // each process's node from its hand-out to its (node, Trying) write
		dirty int                      // hand-outs of a node that was handed the lock and linked to
	)
	handed := func(pid int, node memory.Addr) {
		if arena.Peek(node) != 0 && !slices.Contains([]memory.Addr{memory.Nil, node}, memory.AsAddr(arena.Peek(node+1))) {
			dirty++
		}
		out[pid] = node
	}
	// The first write after a hand-out to a word other than the node's
	// own is the owner's (node, Trying); the event comes before it runs.
	onEvent := func(ev sim.Event, a *memory.Arena) {
		node := out[ev.PID]
		if ev.Kind != sim.EvOp || ev.Op.Kind != memory.OpWrite || node == memory.Nil || ev.Op.Addr == node || ev.Op.Addr == node+1 {
			return
		}
		if a.Peek(node) != 0 || memory.AsAddr(a.Peek(node+1)) != memory.Nil {
			t.Errorf("p%d writes (node, Trying) with node %d not reset: granted %d, next %d", ev.PID, node, a.Peek(node), a.Peek(node+1))
		}
		out[ev.PID] = memory.Nil
	}
	r, err := sim.New(sim.Config{N: n, Model: memory.CC, Requests: 30, Seed: 3, RecordOps: true, OnEvent: onEvent},
		func(sp memory.Space, n int) sim.Lock {
			arena = sp.(*memory.Arena)
			return core.NewWRLock(sp, n, "wr", &handOuts{NodeSource: NewPool(sp, n), held: make([]memory.Addr, n), handed: handed})
		})
	if err != nil {
		t.Fatal(err)
	}
	before := r.Arena().Size()
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ArenaWords != before {
		t.Fatalf("arena grew from %d to %d words despite reclamation", before, res.ArenaWords)
	}
	if res.MaxCSOverlap != 1 {
		t.Fatalf("ME violated: overlap %d", res.MaxCSOverlap)
	}
	if got := len(res.Requests); got != 120 {
		t.Fatalf("%d requests, want 120", got)
	}
	if dirty == 0 {
		t.Fatal("no node was handed out again after a handoff and a link; the reset went untested")
	}
}

func TestWRLockWithPoolUnderFailures(t *testing.T) {
	// Node reuse must stay safe under crashes, including unsafe ones at
	// the FAS (relinquished nodes may be referenced long after abandonment).
	for seed := int64(0); seed < 8; seed++ {
		plan := &sim.RandomFailures{Rate: 0.01, MaxTotal: 6, DuringPassage: true}
		r, err := sim.New(sim.Config{N: 4, Model: memory.DSM, Requests: 12, Seed: seed, Plan: plan,
			MaxSteps: 10_000_000}, wrWithPool)
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
			t.Fatalf("seed %d: overlap %d with %d crashes (node corruption?)",
				seed, res.MaxCSOverlap, res.CrashCount())
		}
	}
}

func TestWRLockWithPoolTargetedUnsafeFailures(t *testing.T) {
	plan := sim.PlanSeq{
		&sim.CrashOnLabel{PID: 1, Label: "wr:fas", After: true},
		&sim.CrashOnLabel{PID: 2, Label: "wr:fas", After: true},
	}
	r, err := sim.New(sim.Config{N: 4, Model: memory.CC, Requests: 10, Seed: 5, Plan: plan,
		MaxSteps: 10_000_000}, wrWithPool)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashCount() != 2 {
		t.Fatalf("%d crashes, want 2", res.CrashCount())
	}
	if got := len(res.Requests); got != 40 {
		t.Fatalf("%d requests, want 40", got)
	}
}
