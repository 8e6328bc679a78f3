// Package core implements the contributions of Dhoked & Mittal, "An
// Adaptive Approach to Recoverable Mutual Exclusion" (PODC 2020):
//
//   - WRLock — the optimal weakly recoverable MCS-based queue lock with
//     wait-free exit (Section 4, Algorithm 2). O(1) RMRs per passage in
//     every failure scenario; a crash immediately after its single
//     sensitive instruction (the FAS on the queue tail) may fragment the
//     queue and violate mutual exclusion temporarily and responsively.
//   - SALock — the semi-adaptive framework (Algorithm 3): filter lock →
//     splitter → {fast path | core lock} → dual-port arbitrator. The
//     splitter, the biased O(1) try-lock that routes processes onto the
//     fast or slow path (Section 5.1), is a CAS on the arbitrator's Left
//     side (yalock.Arbitrator.Claim).
//   - BALock — the recursive well-bounded super-adaptive lock
//     (Section 5.2): m = T(n) stacked SALock levels over a non-adaptive
//     strongly recoverable base lock, giving O(min{√F, T(n)}) RMRs per
//     passage when the super-passage overlaps F failures.
//
// All locks follow the paper's execution model (Recover, Enter, Exit) and
// keep every per-process mutable variable in shared memory, so they
// tolerate crash–recover failures at any instruction boundary.
package core

import "rme/internal/memory"

// NodeSource supplies queue nodes to WRLock. NewNode must be idempotent:
// repeated calls return the same node until Retire is called, which
// tolerates crashes between obtaining a node and persisting the
// reference, and lets WRLock ask the source for its node instead of
// storing a copy. The paper pairs the lock with the memory-reclamation
// algorithm of Section 7.2 (internal/reclaim), whose NewNode is
// idempotent by design.
type NodeSource interface {
	// NewNode returns the address of a 2-word queue node (offset 0:
	// granted flag, 0 while the owner waits; offset 1: next pointer)
	// for the calling process. Zeroed memory is a reset node.
	NewNode(p memory.Port) memory.Addr
	// Retire declares the calling process done with its current node.
	Retire(p memory.Port)
}

// AllocSource is the trivial NodeSource: it allocates a fresh node for
// each passage and never reuses memory (space grows with the number of
// passages), which is safe unconditionally; use internal/reclaim for the
// paper's bounded-space pools. Like the pools, it keeps each process's
// current node in a shared word of its own, so NewNode returns the same
// node until Retire clears that word.
type AllocSource struct {
	cur []memory.Addr // cur[i]: the node process i has out, or Nil
}

var _ NodePeeker = (*AllocSource)(nil)

// NewAllocSource allocates a fresh-node source for n processes in sp.
func NewAllocSource(sp memory.Space, n int) *AllocSource {
	s := &AllocSource{cur: make([]memory.Addr, n)}
	for i := range s.cur {
		s.cur[i] = sp.Alloc(1, i)
	}
	return s
}

// NewNode implements NodeSource. A crash between the allocation and the
// write loses a node nobody has seen.
func (s *AllocSource) NewNode(p memory.Port) memory.Addr {
	i := p.PID()
	if node := memory.AsAddr(p.Read(s.cur[i])); node != memory.Nil {
		return node
	}
	node := p.Alloc(qnodeWords, i)
	p.Write(s.cur[i], memory.FromAddr(node))
	return node
}

// Retire implements NodeSource.
func (s *AllocSource) Retire(p memory.Port) {
	i := p.PID()
	if p.Read(s.cur[i]) != memory.FromAddr(memory.Nil) {
		p.Write(s.cur[i], memory.FromAddr(memory.Nil))
	}
}

// PeekNode implements NodePeeker.
func (s *AllocSource) PeekNode(pk Peeker, i int) memory.Addr {
	return memory.AsAddr(pk.Peek(s.cur[i]))
}

const (
	qnodeWords = 2
	offGranted = 0
	offNext    = 1
)

// Process states with respect to a WRLock (Section 4.3), the low
// stateBits bits of a process's state word; the rest hold its persisted
// predecessor. Free is the zero value so freshly allocated shared memory
// is a valid initial state. Aborted is this repository's extension
// (DESIGN §15): it is persisted before the back-out dance mutates the
// queue, so a crash during an abort resumes the dance from Recover
// instead of losing track of the node.
const (
	stateFree memory.Word = iota
	stateTrying
	stateInCS
	stateLeaving
	stateAborted

	stateBits = 3
	stateMask = 1<<stateBits - 1
)

// Aborter is implemented by locks that support crash-safe back-out: Abort
// runs after the process's Enter (or Recover) was unwound at an
// instruction boundary and leaves the process holding nothing, using only
// steps that the lock's own Recover can finish if the process crashes
// mid-abort. Abort may wait (e.g. the arbitration-tree base completes an
// in-flight node acquisition before releasing it) but never blocks behind
// an entire passage of another process on the abortable components.
type Aborter interface {
	Abort(p memory.Port)
}
