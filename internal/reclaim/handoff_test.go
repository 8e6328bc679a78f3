package reclaim

import (
	"math/rand"
	"slices"
	"testing"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/sim"
)

// handoffSource wraps a node source and fails the test when it hands out
// a node that another process's outstanding node still names as its
// successor: that process's Exit would write its handoff into the node's
// new use. This is the stale reference WRLock.finishAbandon leaves for
// the pool's epoch wait to cover.
type handoffSource struct {
	core.NodeSource
	t    *testing.T
	mem  interface{ Peek(memory.Addr) memory.Word }
	held []memory.Addr // each process's outstanding node, or Nil
}

// successor reads the next pointer (offset 1) of node.
func (s *handoffSource) successor(node memory.Addr) memory.Addr {
	return memory.AsAddr(s.mem.Peek(node + 1))
}

func (s *handoffSource) NewNode(p memory.Port) memory.Addr {
	node := s.NodeSource.NewNode(p)
	for q, m := range s.held {
		if q != p.PID() && m != memory.Nil && s.successor(m) == node {
			s.t.Errorf("p%d handed node %d while p%d's outstanding node %d still names it as its successor",
				p.PID(), node, q, m)
		}
	}
	s.held[p.PID()] = node
	return node
}

func (s *handoffSource) Retire(p memory.Port) {
	s.NodeSource.Retire(p)
	s.held[p.PID()] = memory.Nil
}

// staleHandoff is the scheduler and abort plan that set the hazard up:
// p0 runs into its CS; p1 appends and links behind it and is aborted, so
// p0's node still names p1's node x; p1 then runs alone until it
// completes every request or stalls; finally p0 exits, and the run goes
// on to the end.
type staleHandoff struct {
	src      *handoffSource
	phase    int         // 0: p0 to its CS, 1: p1 links, 2: p1 alone, 3: the rest
	x        memory.Addr // p1's abandoned node
	stall    int         // p1's grants since its last CS entry
	passages int         // p1's passages while alone
}

// stallGrants is how long p1 may run alone without entering its CS
// before it counts as blocked; a lone wr passage takes a few dozen.
const stallGrants = 1000

func (h *staleHandoff) Pick(_ *rand.Rand, ready []int) int {
	want := 0
	switch h.phase {
	case 1:
		want = 1
	case 2:
		if h.stall++; h.stall > stallGrants || !slices.Contains(ready, 1) {
			h.phase = 3
		} else {
			want = 1
		}
	}
	if slices.Contains(ready, want) {
		return want
	}
	return ready[0]
}

func (h *staleHandoff) onEvent(ev sim.Event, _ *memory.Arena) {
	switch {
	case ev.Kind != sim.EvCSEnter:
	case h.phase == 0 && ev.PID == 0:
		h.phase = 1
	case h.phase == 2 && ev.PID == 1:
		h.passages++
		h.stall = 0
	}
}

func (*staleHandoff) Crash(sim.StepCtx) bool { return false }
func (*staleHandoff) Observe(sim.StepCtx)    {}

// Abort implements sim.AbortPlanner: p1 is aborted once p0's node names
// p1's node as its successor.
func (h *staleHandoff) Abort(ctx sim.StepCtx) bool {
	x := h.src.held[1]
	if h.phase != 1 || ctx.PID != 1 || x == memory.Nil || h.src.successor(h.src.held[0]) != x {
		return false
	}
	h.phase, h.x = 2, x
	return true
}

// TestNoStaleHandoff drives the hazard the epoch wait exists for, on an
// n = 3 wr lock: p1 abandons a node that p0, in its CS, still names as
// its successor, and then allocates alone. The pool must not hand the
// node out again before p0 has exited; it blocks p1 instead. Without the
// wait, p1 runs all its requests and is handed the node back.
func TestNoStaleHandoff(t *testing.T) {
	const n = 3
	for _, c := range []struct {
		name string
		src  func(memory.Space, int) core.NodeSource
	}{
		{"Pool", func(sp memory.Space, n int) core.NodeSource { return NewPool(sp, n) }},
		{"NotifyPool", func(sp memory.Space, n int) core.NodeSource { return NewNotifyPool(sp, n) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &staleHandoff{}
			factory := func(sp memory.Space, n int) sim.Lock {
				h.src = &handoffSource{NodeSource: c.src(sp, n), t: t, mem: sp.(*memory.Arena), held: make([]memory.Addr, n)}
				return core.NewWRLock(sp, n, "wr", h.src)
			}
			r, err := sim.New(sim.Config{N: n, Model: memory.CC, Requests: 6 * n, Sched: h, Plan: h, OnEvent: h.onEvent}, factory)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if h.x == memory.Nil || h.phase != 3 {
				t.Fatalf("hazard never set up: phase %d, abandoned node %d", h.phase, h.x)
			}
			t.Logf("p1 ran %d passages alone while p0 was in its CS", h.passages)
		})
	}
}
