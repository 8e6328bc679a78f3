package core_test

import (
	"fmt"
	"testing"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/recipe"
	"rme/internal/sim"
)

// layer is a stage of a passage, named as cmd/rmeperf's ledger names it.
type layer int

const (
	layerRecover  layer = iota // passage start to level 1's filter
	layerFilter                // the WR-Lock filter, less new_node
	layerNewNode               // reclaim pool: NewNode
	layerSplitter              // splitter and path commitment
	layerArb                   // the arbitrator's Enter
	layerCS                    // the critical section
	layerExit                  // the whole Exit, less retire
	layerRetire                // reclaim pool: Retire
	nLayers
)

// split is one passage's RMRs by layer.
type split [nLayers]int64

func (s split) sum() (t int64) {
	for _, r := range s {
		t += r
	}
	return t
}

func (s split) String() string {
	return fmt.Sprintf("recover %d, filter %d, new_node %d, splitter %d, arbitrator %d, cs %d, exit %d, retire %d = %d",
		s[layerRecover], s[layerFilter], s[layerNewNode], s[layerSplitter], s[layerArb], s[layerCS], s[layerExit], s[layerRetire], s.sum())
}

// ledger attributes pid 0's RMRs to the layer that runs them: the lock's
// phase hook and the simulator's lifecycle events move it between
// layers, and a NodeSource wrapper moves it into the pool's calls and
// back.
type ledger struct {
	arena    *memory.Arena
	cur      layer
	mark     int64
	now      split
	passages []split
}

func (l *ledger) to(next layer) {
	r := l.arena.RMRs(0)
	l.now[l.cur] += r - l.mark
	l.mark, l.cur = r, next
}

func (l *ledger) event(ev sim.Event, _ *memory.Arena) {
	if ev.PID != 0 {
		return
	}
	switch ev.Kind {
	case sim.EvPassageStart:
		l.now, l.cur, l.mark = split{}, layerRecover, l.arena.RMRs(0)
	case sim.EvCSEnter:
		l.to(layerCS)
	case sim.EvCSExit:
		l.to(layerExit)
	case sim.EvPassageEnd:
		l.to(layerExit)
		l.passages = append(l.passages, l.now)
	}
}

func (l *ledger) phase(pid int, ph core.PhaseKind, level int) {
	if pid != 0 {
		return
	}
	switch ph {
	case core.PhaseFilter:
		l.to(layerFilter)
	case core.PhaseSplitter:
		l.to(layerSplitter)
	case core.PhaseArbitrator:
		l.to(layerArb)
	}
}

// ledgerNodes is a level's node source, attributed to new_node and retire.
type ledgerNodes struct {
	core.NodeSource
	l *ledger
}

func (s ledgerNodes) NewNode(p memory.Port) memory.Addr {
	if p.PID() != 0 {
		return s.NodeSource.NewNode(p)
	}
	back := s.l.cur
	s.l.to(layerNewNode)
	a := s.NodeSource.NewNode(p)
	s.l.to(back)
	return a
}

func (s ledgerNodes) Retire(p memory.Port) {
	if p.PID() != 0 {
		s.NodeSource.Retire(p)
		return
	}
	back := s.l.cur
	s.l.to(layerRetire)
	s.NodeSource.Retire(p)
	s.l.to(back)
}

// TestLonePassageLedger splits a lone failure-free passage of the
// shipped recipe (the tournament base, a node ring per level) into its
// layers and pins every part exactly, at n = 1, 2, 8 and 16, for every
// passage after the first lap of n allocations (which reads each peer's
// sequence word once). The parts sum to the simulator's passage count.
//
// Under CC a passage costs 15 RMRs: filter 5 (the node's next and
// locked, (node, Trying), the FAS and (Nil, InCS)), new_node 1, splitter
// 1, arbitrator 2 (Peterson's fast path: Trying and InCS, no turn
// write), exit 5 and retire 1, every one a write or an RMW. The pool
// calls that only name the node (NewNode in Exit, Retire in Enter) cost
// nothing. Under DSM a passage costs 12, plus 1 in new_node when passage
// k's epoch step reads a peer's sequence word (k mod n ≠ 0, the peer
// being k mod n).
func TestLonePassageLedger(t *testing.T) {
	want := func(model memory.Model, n, k int) split {
		if model == memory.CC {
			return split{layerFilter: 5, layerNewNode: 1, layerSplitter: 1, layerArb: 2, layerExit: 5, layerRetire: 1}
		}
		s := split{layerFilter: 1, layerSplitter: 2, layerArb: 4, layerExit: 5}
		if k%n != 0 {
			s[layerNewNode] = 1
		}
		return s
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, n := range []int{1, 2, 8, 16} {
			spec, err := recipe.Spec(recipe.Tournament, n)
			if err != nil {
				t.Fatal(err)
			}
			l := &ledger{}
			src := spec.Source
			spec.Source = func(sp memory.Space, n, level int) core.NodeSource {
				return ledgerNodes{NodeSource: src(sp, n, level), l: l}
			}
			passages := 3*n + 2
			r, err := sim.New(sim.Config{N: n, Model: model, Requests: passages, Seed: 1,
				Sched:   sim.PrioritySched{Less: func(a, b int) bool { return a < b }},
				OnEvent: l.event,
			}, func(sp memory.Space, n int) sim.Lock {
				l.arena = sp.(*memory.Arena)
				b := spec.Build(sp, n)
				b.SetPhaseHook(l.phase)
				return b
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			var whole []int64
			for _, p := range res.Passages {
				if p.PID == 0 {
					whole = append(whole, p.RMRs)
				}
			}
			if len(l.passages) != passages || len(whole) != passages {
				t.Fatalf("%v n=%d: ledger saw %d passages, the simulator %d; want %d", model, n, len(l.passages), len(whole), passages)
			}
			for k := n; k < passages; k++ {
				got := l.passages[k]
				if got.sum() != whole[k] {
					t.Errorf("%v n=%d passage %d: layers sum to %d, the passage costs %d (%v)", model, n, k, got.sum(), whole[k], got)
				}
				if w := want(model, n, k); got != w {
					t.Errorf("%v n=%d passage %d: %v, want %v", model, n, k, got, w)
				}
			}
		}
	}
}
