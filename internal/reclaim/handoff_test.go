package reclaim

import (
	"fmt"
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
	t      *testing.T
	mem    interface{ Peek(memory.Addr) memory.Word }
	held   []memory.Addr                   // each process's outstanding node, or Nil
	handed func(pid int, node memory.Addr) // if set, told of every hand-out
}

// successor reads the next pointer (offset 1) of node.
func (s *handoffSource) successor(node memory.Addr) memory.Addr {
	return memory.AsAddr(s.mem.Peek(node + 1))
}

// NewNode checks only hand-outs: WRLock also calls NewNode to name the
// node it already holds.
func (s *handoffSource) NewNode(p memory.Port) memory.Addr {
	node := s.NodeSource.NewNode(p)
	if node == s.held[p.PID()] {
		return node
	}
	for q, m := range s.held {
		if q != p.PID() && m != memory.Nil && s.successor(m) == node {
			s.t.Errorf("p%d handed node %d while p%d's outstanding node %d still names it as its successor",
				p.PID(), node, q, m)
		}
	}
	s.held[p.PID()] = node
	if s.handed != nil {
		s.handed(p.PID(), node)
	}
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

// Stages of exitCrash, in order. The abandon case starts at abandonHold,
// the exit case at exitHold; both continue from p0Down.
const (
	exitHold     = iota // p0 runs into its CS
	exitLink            // p1 links behind p0
	exitRun             // p0 exits: hands the lock to p1 and crashes
	abandonHold         // p2 runs into its CS
	abandonQueue        // p0 links behind p2
	abandonLink         // p1 links behind p0
	abandonAbort        // p0 is aborted and backs out up to its first write
	abandonExit         // p2 exits: its handoff reaches p0's node
	abandonRun          // p0 abandons: forwards the lock to p1 and crashes
	p0Down              // p0 stays down; p1 runs alone
	p2Takes             // p2 takes the lock
	p1Queues            // p1 queues behind p2
	p0Recovers          // p0 recovers
	fair                // round robin to the end
)

// exitCrash is the scheduler and failure plan of TestExitCrashAfterHandoff:
// p0 hands the lock to p1 (from Exit, or forwarding it from an abandon)
// and crashes `after` steps past that handoff write; p0 then stays down
// while p1 runs alone until its ring hands it the node it held at the
// handoff (n1) or it stalls, p2 takes the lock, p1 queues behind p2, and
// only then does p0 recover. If p0's re-run repeated the handoff, it
// would release p1's reused node while p2 holds the lock.
type exitCrash struct {
	src    *handoffSource
	label  string // the handoff write the crash counts from
	after  int    // p0's steps from that write to its crash
	phase  int
	steps  int         // p0's steps since the handoff write, or -1
	fired  bool        // p0 crashed in the window
	n1     memory.Addr // p1's node when the lock reached it
	reused bool        // p1 was handed n1 again
	stall  int         // grants in the current stage
	rr     int
}

func (h *exitCrash) advance(phase int) { h.phase, h.stall = phase, 0 }

// linked reports whether q's node names r's node as its successor.
func (h *exitCrash) linked(q, r int) bool {
	return h.src.held[q] != memory.Nil && h.src.held[r] != memory.Nil && h.src.successor(h.src.held[q]) == h.src.held[r]
}

func (h *exitCrash) Pick(_ *rand.Rand, ready []int) int {
	if h.stall++; h.stall > stallGrants && h.phase >= p0Down && h.phase < fair {
		h.advance(h.phase + 1) // blocked: go on to the next stage
	}
	want := -1
	switch h.phase {
	case exitLink:
		if h.linked(0, 1) {
			h.n1 = h.src.held[1]
			h.advance(exitRun)
		}
	case abandonQueue:
		if h.linked(2, 0) {
			h.advance(abandonLink)
		}
	case abandonLink:
		if h.linked(0, 1) {
			h.n1 = h.src.held[1]
			h.advance(abandonAbort)
		}
	case p1Queues:
		if h.linked(2, 1) {
			h.advance(p0Recovers)
		}
	case p0Recovers:
		if h.stall > 50 {
			h.advance(fair)
		}
	}
	switch h.phase {
	case exitHold, exitRun, abandonQueue, abandonAbort, abandonRun, p0Recovers:
		want = 0
	case exitLink, abandonLink, p0Down, p1Queues:
		want = 1
	case abandonHold, abandonExit, p2Takes:
		want = 2
	}
	if want >= 0 && slices.Contains(ready, want) {
		return want
	}
	if want >= 0 && h.phase < fair {
		h.advance(fair) // the staged process finished: the stages are over
	}
	h.rr++
	return ready[h.rr%len(ready)]
}

func (h *exitCrash) onEvent(ev sim.Event, _ *memory.Arena) {
	switch {
	case h.phase == exitHold && ev.PID == 0 && ev.Kind == sim.EvCSEnter:
		h.advance(exitLink)
	case h.phase == abandonHold && ev.PID == 2 && ev.Kind == sim.EvCSEnter:
		h.advance(abandonQueue)
	case h.phase == abandonExit && ev.PID == 2 && ev.Kind == sim.EvPassageEnd:
		h.advance(abandonRun)
	case (h.phase == exitRun && ev.Kind == sim.EvPassageEnd || h.phase == abandonRun && ev.Kind == sim.EvAborted) && ev.PID == 0:
		h.advance(fair) // p0 finished its release: `after` is past the window
	case h.phase == p2Takes && ev.PID == 2 && ev.Kind == sim.EvCSEnter:
		h.advance(p1Queues)
	}
}

// handed moves p1 on from running alone once its ring hands it n1 again.
func (h *exitCrash) handed(pid int, node memory.Addr) {
	if h.phase == p0Down && pid == 1 && node == h.n1 {
		h.reused = true
		h.advance(p2Takes)
	}
}

func (h *exitCrash) Crash(ctx sim.StepCtx) bool {
	if ctx.PID != 0 || h.steps != h.after || h.fired || h.phase != exitRun && h.phase != abandonRun {
		return false
	}
	h.fired = true
	h.advance(p0Down)
	return true
}

func (h *exitCrash) Observe(ctx sim.StepCtx) {
	if ctx.PID != 0 {
		return
	}
	switch {
	case h.phase == abandonAbort && ctx.IsOp && ctx.Op.Kind == memory.OpWrite:
		h.advance(abandonExit) // p0 persisted its abort
	case h.phase != exitRun && h.phase != abandonRun:
	case h.steps >= 0:
		h.steps++
	case ctx.IsOp && ctx.Op.Label == h.label:
		h.steps = 0
	}
}

// Abort implements sim.AbortPlanner: p0 is aborted while it waits behind
// p2 with p1 linked behind it.
func (h *exitCrash) Abort(ctx sim.StepCtx) bool {
	return h.phase == abandonAbort && ctx.PID == 0 && h.steps < 0 && h.stall <= 1
}

// TestExitCrashAfterHandoff crashes p0 at every boundary from the write
// that hands the lock to p1 to the end of its release, on an n = 3 wr
// lock over the §7.2 ring: from Exit, and from the abandon dance that
// forwards the lock when p0 is aborted mid-queue. p0 stays down while p1
// runs until its ring hands back the node p0's handoff named (or p1
// blocks in the epoch wait), p2 takes the lock and p1 queues behind it;
// then p0 recovers. No crash in this window is unsafe (none follows the
// FAS), so the lock must keep mutual exclusion: p0's recovery must not
// repeat the handoff into p1's reused node.
func TestExitCrashAfterHandoff(t *testing.T) {
	const n = 3
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, c := range []struct {
			name  string
			start int
			label string
		}{
			{"Exit", exitHold, "wr:handoff"},
			{"finishAbandon", abandonHold, "wr:abandon"},
		} {
			t.Run(fmt.Sprintf("%v/%s", model, c.name), func(t *testing.T) {
				for after := 0; ; after++ {
					h := &exitCrash{label: c.label, after: after, phase: c.start, steps: -1}
					factory := func(sp memory.Space, n int) sim.Lock {
						h.src = &handoffSource{NodeSource: NewPool(sp, n), t: t, mem: sp.(*memory.Arena), held: make([]memory.Addr, n), handed: h.handed}
						return core.NewWRLock(sp, n, "wr", h.src)
					}
					r, err := sim.New(sim.Config{N: n, Model: model, Requests: 10, CSOps: 30, Sched: h, Plan: h, OnEvent: h.onEvent}, factory)
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !h.fired {
						if after == 0 {
							t.Fatal("p0 never reached the handoff write")
						}
						break // past the end of p0's release
					}
					t.Logf("crash %d steps after the handoff: p1 handed n1 again: %v, overlap %d", after, h.reused, res.MaxCSOverlap)
					if res.MaxCSOverlap != 1 {
						t.Errorf("crash %d steps after the handoff: overlap %d, want 1", after, res.MaxCSOverlap)
					}
				}
			})
		}
	}
}
