// Package recipe builds the lock the library ships: the paper's BA-Lock,
// m = T(n) SA-Lock levels over a base lock, each level's filter drawing
// its queue nodes from its own §7.2 reclamation pool. rme.New, NewMap and
// Restore build from it, and so do the simulator registry's "ba-log" and
// "ba-sublog", so a paper table and the shipped lock are one lock.
package recipe

import (
	"fmt"

	"rme/internal/arbtree"
	"rme/internal/core"
	"rme/internal/grlock"
	"rme/internal/memory"
	"rme/internal/reclaim"
)

// Base selects the strongly recoverable lock at the bottom of the
// recursion.
type Base int

// Base locks.
const (
	// Tournament is the binary tournament of 2-process locks:
	// T(n) = O(log n), m = ⌈log₂ n⌉.
	Tournament Base = iota + 1
	// ArbTree is the Δ-ary arbitration tree: T(n) = O(log n/log log n)
	// under CC, m = ⌈log n/log log n⌉.
	ArbTree
)

// Nodes is every filter level's node source: a fresh reclamation pool
// (Algorithm 4), so the footprint is fixed at construction.
func Nodes(sp memory.Space, n, level int) core.NodeSource { return reclaim.NewPool(sp, n) }

// Levels returns the recursion depth m = T(n) over b.
func (b Base) Levels(n int) int {
	if b == ArbTree {
		return core.SubLogLevels(n)
	}
	return core.DefaultLevels(n)
}

// Spec returns the shipped recipe for n processes over b.
func Spec(b Base, n int) (core.LockSpec, error) {
	spec := core.LockSpec{Levels: b.Levels(n), Source: Nodes}
	switch b {
	case Tournament:
		spec.Base = func(sp memory.Space, n int) core.RecoverableLock { return grlock.NewTournament(sp, n) }
	case ArbTree:
		spec.Base = func(sp memory.Space, n int) core.RecoverableLock { return arbtree.New(sp, n, 0) }
	default:
		return core.LockSpec{}, fmt.Errorf("unknown base lock %d", b)
	}
	return spec, nil
}
