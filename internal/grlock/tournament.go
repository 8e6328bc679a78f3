// rme:sensitive-instructions 0 — read/write only; no FAS or CAS in this file.
//
// Package grlock provides n-process strongly recoverable locks built by
// arranging the dual-port arbitrator of internal/yalock in a binary
// tournament tree, in the style of Golab and Ramaraju's n-process
// construction from 2-process recoverable locks (Recoverable Mutual
// Exclusion, Distributed Computing 2019).
//
// The tournament is bounded and non-adaptive: every passage costs
// Θ(log n) RMRs whether or not failures occur. In the paper's framework it
// plays the role of the non-adaptive strongly recoverable base lock
// (NA-Lock) with T(n) = O(log n); internal/arbtree provides the
// sub-logarithmic alternative.
package grlock

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/yalock"
)

type stage struct {
	arb  *yalock.Arbitrator
	side yalock.Side
}

// Tournament is an n-process strongly recoverable lock: a complete binary
// tree of dual-port recoverable arbitrators. Process i ascends from its
// leaf to the root, entering each tree node from the side of the subtree
// it came from; subtree mutual exclusion guarantees the arbitrator's
// one-process-per-side contract.
type Tournament struct {
	n     int
	nodes int
	paths [][]stage // per process, leaf → root
}

// NewTournament allocates a tournament lock for n processes in sp.
func NewTournament(sp memory.Space, n int) *Tournament {
	if n < 1 {
		panic(fmt.Sprintf("grlock: NewTournament n = %d", n))
	}
	t := &Tournament{n: n, paths: make([][]stage, n)}
	t.build(sp, 0, n)
	return t
}

func (t *Tournament) build(sp memory.Space, lo, hi int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	t.build(sp, lo, mid)
	t.build(sp, mid, hi)
	arb := yalock.New(sp, t.n)
	t.nodes++
	for pid := lo; pid < mid; pid++ {
		t.paths[pid] = append(t.paths[pid], stage{arb, yalock.Left})
	}
	for pid := mid; pid < hi; pid++ {
		t.paths[pid] = append(t.paths[pid], stage{arb, yalock.Right})
	}
}

// Nodes returns the number of arbitrators in the tree (n-1).
func (t *Tournament) Nodes() int { return t.nodes }

// Height returns the maximum path length from a leaf to the root.
func (t *Tournament) Height() int {
	h := 0
	for _, p := range t.paths {
		if len(p) > h {
			h = len(p)
		}
	}
	return h
}

// Recover is empty: an arbitrator needs no recovery before its Enter.
func (t *Tournament) Recover(p memory.Port) {}

// Enter acquires every arbitrator on the process's leaf-to-root path.
// After a crash the walk is idempotent: nodes already held are re-entered
// through their bounded CS fast path, so recovery is bounded by the path
// length.
func (t *Tournament) Enter(p memory.Port) {
	for _, st := range t.paths[p.PID()] {
		st.arb.Enter(p, st.side)
	}
}

// Exit releases the path in reverse (root first). Re-execution after a
// crash is safe: arbitrators released earlier only signal their rival
// again.
func (t *Tournament) Exit(p memory.Port) {
	path := t.paths[p.PID()]
	for i := len(path) - 1; i >= 0; i-- {
		path[i].arb.Exit(p, path[i].side)
	}
}

// Abort backs the process out after an unwound Enter. The full reverse
// release walk is exactly the right back-out: arbitrators never reached
// only signal their rival (occupant guard), the stage the process was
// trying retracts its doorway (yalock's Exit works from ssTrying), and
// held stages release normally — O(log n) steps, no waiting, and every
// step is one a post-crash Recover+Enter repairs.
func (t *Tournament) Abort(p memory.Port) { t.Exit(p) }
