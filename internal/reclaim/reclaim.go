// rme:sensitive-instructions 0 — read/write only; no FAS or CAS in this file.
//
// Package reclaim implements the paper's memory-reclamation algorithm
// (Section 7.2, Algorithm 4) for the queue nodes of the weakly recoverable
// lock, as a ring.
//
// A failure can leave other processes holding references to a node long
// after its owner finished with it, so nodes cannot be reused immediately.
// Each process therefore owns a ring of 2n nodes and one sequence word,
// odd while a node is out. Allocation a hands out slot a mod 2n and first
// runs one epoch step on peer k = a mod n: it waits until the request of
// k it recorded n allocations ago has retired, then records k's request
// now in flight. A node retired after allocation a comes back at
// allocation a+2n. Allocations a+1 … a+n look at every peer after the
// retire, and allocations a+n+1 … a+2n wait for each request they saw —
// so every request that could still reference the node has finished
// before the node is handed out again.
//
// All bookkeeping lives in shared memory; NewNode is idempotent (repeated
// calls return the same node until Retire), which tolerates a crash
// between obtaining a node and persisting the reference — the property
// Algorithm 2 relies on. A crash inside the epoch step re-runs it, which
// at worst waits for a later request of the same peer.
package reclaim

import (
	"fmt"

	"rme/internal/core"
	"rme/internal/memory"
)

const nodeWords = 2 // matches core's queue node layout

// Pool is one lock instance's reclamation state: for every process, a
// ring of 2n nodes, its sequence word and its n epoch records.
type Pool struct {
	n int

	// nodes[i][s] is the address of slot s of process i's ring.
	nodes [][]memory.Addr

	// seq[i] counts process i's allocations and retires: 2a while
	// allocation a is next, 2a+1 while its node is out.
	seq []memory.Addr

	// snapshot[i][k] is the odd seq[k] process i last recorded for peer
	// k, or 0 if k had no node out.
	snapshot [][]memory.Addr
}

var (
	_ core.NodeSource = (*Pool)(nil)
	_ core.NodePeeker = (*Pool)(nil)
)

// NewPool allocates reclamation state for n processes in sp. It reserves
// 2n nodes × 2 words plus 1 + n words per process — the O(n²) words per
// lock instance that yield the paper's overall O(n²·T(n)) space bound.
func NewPool(sp memory.Space, n int) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("reclaim: NewPool n = %d", n))
	}
	r := &Pool{
		n:        n,
		nodes:    make([][]memory.Addr, n),
		seq:      make([]memory.Addr, n),
		snapshot: make([][]memory.Addr, n),
	}
	for i := 0; i < n; i++ {
		r.nodes[i] = make([]memory.Addr, 2*n)
		for s := range r.nodes[i] {
			r.nodes[i][s] = sp.Alloc(nodeWords, i)
		}
		r.seq[i] = sp.Alloc(1, i)
		r.snapshot[i] = make([]memory.Addr, n)
		for k := 0; k < n; k++ {
			r.snapshot[i][k] = sp.Alloc(1, i)
		}
	}
	return r
}

// NewNode implements core.NodeSource ("new node()" of Algorithm 4).
// Repeated calls return the same node until Retire is called.
func (r *Pool) NewNode(p memory.Port) memory.Addr { return r.newNode(p, nil) }

// newNode runs the epoch step and hands out the next slot; a non-nil nt
// waits by notification instead of polling.
func (r *Pool) newNode(p memory.Port, nt *NotifyPool) memory.Addr {
	i := p.PID()
	s := p.Read(r.seq[i])
	if s&1 == 0 {
		if k := int(s/2) % r.n; k != i {
			r.epoch(p, k, nt)
		}
		s++
		p.Write(r.seq[i], s)
	}
	return r.nodes[i][int(s/2)%(2*r.n)]
}

// Retire implements core.NodeSource ("retire node()" of Algorithm 4).
func (r *Pool) Retire(p memory.Port) { r.retire(p) }

// retire bumps the caller's seq back to even if a node is out, and
// returns it.
func (r *Pool) retire(p memory.Port) memory.Word {
	i := p.PID()
	s := p.Read(r.seq[i])
	if s&1 == 1 {
		s++
		p.Write(r.seq[i], s)
	}
	return s
}

// epoch is one allocation's step of the scan ("Epoch()" of Algorithm 4):
// wait until peer k's request recorded n allocations ago has retired,
// then record k's request now in flight. Re-running it after a crash is
// harmless.
func (r *Pool) epoch(p memory.Port, k int, nt *NotifyPool) {
	i := p.PID()
	t := p.Read(r.snapshot[i][k])
	var v memory.Word
	if nt != nil {
		v = nt.await(p, k, t)
	} else {
		v = p.Read(r.seq[k])
		for t != 0 && v <= t {
			p.Pause()
			v = p.Read(r.seq[k])
		}
	}
	if v&1 == 0 {
		v = 0
	}
	if v != t {
		p.Write(r.snapshot[i][k], v)
	}
}

// Words returns the number of shared-memory words the pool occupies —
// the space-bound figure (n(5n+1), O(n²) per lock instance).
func (r *Pool) Words() int {
	return r.n * (2*r.n*nodeWords + 1 + r.n)
}

// Outstanding reports, from a debug snapshot, how many nodes process i
// has allocated but not retired (0 or 1 under Algorithm 2's single-node
// discipline).
func (r *Pool) Outstanding(pk interface{ Peek(memory.Addr) memory.Word }, i int) int {
	return int(pk.Peek(r.seq[i]) & 1)
}

// PeekNode implements core.NodePeeker: from a debug snapshot, the node
// process i has out, or Nil.
func (r *Pool) PeekNode(pk core.Peeker, i int) memory.Addr {
	s := pk.Peek(r.seq[i])
	if s&1 == 0 {
		return memory.Nil
	}
	return r.nodes[i][int(s/2)%(2*r.n)]
}
