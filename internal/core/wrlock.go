// rme:sensitive-instructions 1 — the FAS on tail (Definition 3.3). The
// abort back-out (DESIGN §15) adds two RMWs — the tail-detach CAS and the
// wait-free next marker CAS of the abandon dance — but both are the Exit
// segment's own idempotent instructions re-used under stateAborted, so the
// inventory is unchanged.
package core

import (
	"fmt"

	"rme/internal/memory"
)

// WRLock is the weakly recoverable MCS queue lock of Section 4
// (Algorithm 2). It extends the bounded-exit MCS lock of Dvir and
// Taubenfeld with crash recovery:
//
//   - per-process state lives in shared memory, one word per process,
//     st[i] = pred << stateBits | state, and is advanced only at the end
//     of idempotent blocks, so re-executing a block after a crash is
//     harmless. Algorithm 2's mine[i] is not stored: the node source
//     names the node, since NewNode returns the same node until Retire.
//     This rests on one invariant: state ≠ Free ⇒ the process has a node
//     out. Enter writes (node, Trying) only after NewNode, and Exit and
//     the abort back-out write Free before they Retire;
//   - the outcomes of the CAS instructions on next fields are never used
//     — the fields are re-read instead — making those steps idempotent;
//     Exit uses its tail CAS's outcome only to skip signalling when
//     success proves there is no successor, and a repeated Exit's CAS
//     fails and signals;
//   - the only sensitive instruction (Definition 3.3) is the FAS on tail:
//     a crash between the FAS and persisting its result into st[i]
//     strands the process's node at the head of a new sub-queue. Recover
//     detects this (st[i] is still (node, Trying)), relinquishes the node
//     via the wait-free exit, and retries with a fresh node.
//
// Every passage — Recover, Enter and Exit together — performs O(1) RMRs
// under both the CC and DSM models, regardless of failures (Theorem 4.7).
type WRLock struct {
	n    int
	name string

	tail memory.Addr
	st   []memory.Addr // per process: pred << stateBits | state

	src          NodeSource
	fasLabel     string
	handoffLabel string
	abandonLabel string
}

// NewWRLock allocates a weakly recoverable lock for n processes in sp.
// name distinguishes instances in instruction labels (the sensitive FAS is
// labeled "<name>:fas", which failure plans use to target unsafe
// failures). src supplies queue nodes; nil selects an AllocSource.
func NewWRLock(sp memory.Space, n int, name string, src NodeSource) *WRLock {
	if n < 1 {
		panic(fmt.Sprintf("core: NewWRLock n = %d", n))
	}
	l := &WRLock{
		n:            n,
		name:         name,
		tail:         sp.Alloc(1, memory.HomeNone),
		st:           make([]memory.Addr, n),
		src:          src,
		fasLabel:     name + ":fas",
		handoffLabel: name + ":handoff",
		abandonLabel: name + ":abandon",
	}
	for i := 0; i < n; i++ {
		// Per-process words live in the process's own memory module so
		// that reading one's own state is local under DSM.
		l.st[i] = sp.Alloc(1, i)
	}
	if src == nil {
		l.src = NewAllocSource(sp, n)
	}
	return l
}

// Name returns the instance name.
func (l *WRLock) Name() string { return l.name }

// FASLabel returns the label carried by the sensitive FAS instruction.
func (l *WRLock) FASLabel() string { return l.fasLabel }

func locked(node memory.Addr) memory.Addr { return node + offLocked }
func next(node memory.Addr) memory.Addr   { return node + offNext }

// stWord packs a process's persisted predecessor and state into its
// state word.
func stWord(pred memory.Addr, state memory.Word) memory.Word {
	return memory.FromAddr(pred)<<stateBits | state
}

// stPred unpacks the predecessor of a state word.
func stPred(w memory.Word) memory.Addr { return memory.AsAddr(w >> stateBits) }

// Recover implements the Recover segment of Algorithm 2. It runs a
// bounded number of steps (BR property, Theorem 4.6).
func (l *WRLock) Recover(p memory.Port) {
	w := p.Read(l.st[p.PID()])
	switch w & stateMask {
	case stateTrying:
		if stPred(w) == l.src.NewNode(p) {
			// May have failed while performing the FAS: the result
			// was never persisted, so the predecessor is unknown.
			// Abort the attempt (relinquish the node).
			l.Exit(p)
		}
	case stateLeaving:
		// Finish the interrupted Exit segment.
		l.Exit(p)
	case stateAborted:
		// Finish an interrupted abort back-out (DESIGN §15): every step
		// of the abandon dance is idempotent, so re-running it from the
		// top repairs a crash at any boundary inside it.
		l.finishAbandon(p)
	}
}

// Enter implements the Enter segment of Algorithm 2.
func (l *WRLock) Enter(p memory.Port) {
	i := p.PID()
	w := p.Read(l.st[i])
	var node memory.Addr
	switch w & stateMask {
	case stateFree:
		// A crash between a previous Exit's Free write and its Retire
		// leaves that used node out; retiring it here keeps NewNode
		// from handing it straight back without the epoch delay. Then
		// NewNode hands out the same node until Retire, so a crash
		// anywhere in this block re-runs it with a node nobody else
		// has seen.
		l.src.Retire(p)
		node = l.src.NewNode(p)
		p.Write(next(node), memory.FromAddr(memory.Nil))
		p.Write(locked(node), memory.Bool(true))
		// pred = node lets Recover detect a failure during the FAS
		// step below.
		w = stWord(node, stateTrying)
		p.Write(l.st[i], w)
	case stateTrying:
		node = l.src.NewNode(p)
	default:
		return // InCS: crashed inside the CS, re-enter at once (BCSR)
	}

	pred := stPred(w)
	if pred == node {
		// Append my node to the queue. This FAS is the single
		// sensitive instruction of the algorithm.
		p.Label(l.fasLabel)
		pred = memory.AsAddr(p.FAS(l.tail, memory.FromAddr(node))) // rme:sensitive
		if pred == memory.Nil {
			// The queue was empty: the lock is ours, and there is
			// nothing to link or wait for. One write persists the
			// FAS's result and the state.
			p.Write(l.st[i], stWord(memory.Nil, stateInCS))
			return
		}
		// Persist the result of the FAS.
		p.Write(l.st[i], stWord(pred, stateTrying))
	}

	// Create the link to the predecessor (Trying is persisted only with
	// pred ≠ Nil). The outcome of the CAS is deliberately ignored; the
	// field is re-read so the step is idempotent across failures.
	p.CAS(next(pred), memory.FromAddr(memory.Nil), memory.FromAddr(node)) // rme:nonsensitive(outcome ignored and field re-read; idempotent across crashes)
	if memory.AsAddr(p.Read(next(pred))) == node {
		// Wait for the predecessor to complete.
		for memory.AsBool(p.Read(locked(node))) {
			p.Pause()
		}
	}
	// Otherwise next(pred) holds the predecessor's own address: the lock
	// was released wait-free and is ours.
	p.Write(l.st[i], stWord(pred, stateInCS))
}

// Exit implements the Exit segment of Algorithm 2. It runs a bounded
// number of steps (BE property, Theorem 4.6).
func (l *WRLock) Exit(p memory.Port) {
	i := p.PID()
	// Leaving keeps pred: SubQueues links a leaving holder to its
	// successor through it.
	pred := stPred(p.Read(l.st[i]))
	p.Write(l.st[i], stWord(pred, stateLeaving))
	node := l.src.NewNode(p) // out while state ≠ Free: returns it

	// Remove my node from the queue if it has no successor. Success
	// means tail still holds the node only this process's FAS put there
	// and no FAS has returned it, so there is no successor to signal. A
	// repeated CAS after a crash fails and runs the idempotent signalling
	// below, which is harmless without a successor (see Section 4.3).
	if !p.CAS(l.tail, memory.FromAddr(node), memory.FromAddr(memory.Nil)) { // rme:nonsensitive(success proves no successor; a repeated CAS after a crash fails and takes the idempotent signalling path)
		// May have a successor: mark the next field with my own address
		// so a late-linking successor learns the lock is free (wait-free
		// signal).
		p.CAS(next(node), memory.FromAddr(memory.Nil), memory.FromAddr(node)) // rme:nonsensitive(wait-free exit signal; succeeds at most once and re-running it is a no-op)

		if nxt := memory.AsAddr(p.Read(next(node))); nxt != node {
			// The link was already created; tell the successor to
			// stop spinning.
			p.Label(l.handoffLabel)
			p.Write(locked(nxt), memory.Bool(false))
		}
	}

	// Free before Retire: once the node is retired its ring may hand it
	// out again, so no re-run of this Exit may touch it. A crash after
	// the Free write leaves the node out, and the next Enter retires it.
	p.Write(l.st[i], stWord(memory.Nil, stateFree))
	l.src.Retire(p)
}

// Abort implements Aborter: it backs the process out of the queue after
// its Enter (or Recover) was unwound at an instruction boundary
// (DESIGN §15). The cases mirror Recover's:
//
//   - before the FAS, or with the FAS outcome unpersisted, the node is
//     relinquished exactly like Recover's crash-relinquish (Exit);
//   - queued behind a predecessor, the process abandons mid-queue: it
//     persists stateAborted, detaches the tail if it is last, plants the
//     wait-free marker, hands the filter token to an already-linked
//     successor (the queue stays linked for successors), and retires its
//     node — the predecessor's pending handoff write against it is made
//     harmless by the reclamation pool's epoch delay (see finishAbandon);
//   - holding or leaving the lock, a normal Exit releases it.
//
// Every step is one the next Recover can finish, so a crash at any point
// during Abort recovers cleanly. Like an unsafe failure, a mid-queue
// abandon may briefly leave two filter winners; the framework above the
// filter (splitter, core, arbitrator) preserves mutual exclusion exactly
// as it does after crash-induced queue fragmentation.
func (l *WRLock) Abort(p memory.Port) {
	i := p.PID()
	w := p.Read(l.st[i])
	switch w & stateMask {
	case stateFree:
		// Nothing is queued: a node out (if any) was never shared, and
		// the next Enter retires it. The back-out makes no NodeSource
		// call here, since an abort delivered inside NewNode's epoch
		// wait lands in this case.
		return
	case stateTrying:
		node := l.src.NewNode(p)
		pred := stPred(w)
		if pred == node || !memory.AsBool(p.Read(locked(node))) {
			// FAS undecided (relinquish like Recover), or the handoff
			// already arrived: a plain Exit backs out without touching
			// anyone else's state.
			l.Exit(p)
			return
		}
		// Queued behind a live predecessor: abandon mid-queue. Persist
		// the abort before mutating the queue so a crash inside the
		// dance resumes it from Recover.
		p.Write(l.st[i], stWord(pred, stateAborted))
		l.finishAbandon(p)
	case stateInCS, stateLeaving:
		l.Exit(p)
	case stateAborted:
		l.finishAbandon(p)
	}
}

// finishAbandon runs the abandon dance from persisted state (state ==
// stateAborted): the Exit segment's own idempotent instruction sequence,
// ending in an ordinary retire. The abandoned predecessor may still owe
// the node a handoff write (locked ← false), but that stale reference is
// precisely the situation the paper's reclamation algorithm (Section 7.2,
// Algorithm 4) is built for: a slot is reused only after epoch steps that
// ran after the retire have recorded every request then in flight and
// waited for each to retire — including the predecessor's hold, whose
// Exit lands the handoff before its own retire. Retiring eagerly also
// keeps the pool live: a deferred retire would leave this process's node
// out, and if it never returned, every other process's epoch would
// eventually wait on it forever.
func (l *WRLock) finishAbandon(p memory.Port) {
	i := p.PID()
	node := l.src.NewNode(p) // out while state ≠ Free: returns it
	// Detach from the tail if we are last (idempotent, outcome ignored).
	p.CAS(l.tail, memory.FromAddr(node), memory.FromAddr(memory.Nil)) // rme:nonsensitive(outcome ignored; repeating the detach after a crash is a no-op)
	// Plant the wait-free marker so a successor that has not linked yet
	// learns the head of its fragment is gone.
	p.CAS(next(node), memory.FromAddr(memory.Nil), memory.FromAddr(node)) // rme:nonsensitive(wait-free abandon signal; succeeds at most once and re-running it is a no-op)
	if nxt := memory.AsAddr(p.Read(next(node))); nxt != node {
		// A successor is linked: forward the filter token so the queue
		// behind us keeps moving without waiting for our predecessor.
		p.Label(l.abandonLabel)
		p.Write(locked(nxt), memory.Bool(false))
	}
	// Free before Retire, as in Exit: a re-run after the Free write
	// never touches the node, and the epoch delay makes the
	// predecessor's pending handoff write against it harmless.
	p.Write(l.st[i], stWord(memory.Nil, stateFree))
	l.src.Retire(p)
}

// SubQueue describes one fragment of the request queue, reconstructed from
// shared memory for diagnostics (Figure 1). Owners lists the processes
// owning the chain's nodes in queue order; AtTail reports whether the
// global tail pointer points into this fragment.
type SubQueue struct {
	Owners []int
	AtTail bool
}

// Peeker reads shared memory without side effects (satisfied by
// *memory.Arena).
type Peeker interface {
	Peek(a memory.Addr) memory.Word
}

// NodePeeker is a NodeSource whose current node per process can be read
// from a debug snapshot: the node process i has out, or Nil. SubQueues
// needs one, since the lock stores no copy of its node. AllocSource and
// the §7.2 pools (internal/reclaim) implement it.
type NodePeeker interface {
	PeekNode(pk Peeker, i int) memory.Addr
}

// SubQueues reconstructs the current sub-queue structure from shared
// memory, exactly as the paper's Proposition 4.1 argues is possible: each
// in-flight process contributes its node (read from the node source,
// which must be a NodePeeker) and its persisted predecessor, and explicit
// next links plus implicit pred links are stitched into chains.
// Fragmentation (more than one sub-queue) appears only after unsafe
// failures.
func (l *WRLock) SubQueues(pk Peeker) []SubQueue {
	np, ok := l.src.(NodePeeker)
	if !ok {
		panic(fmt.Sprintf("core: SubQueues needs a NodePeeker source, have %T", l.src))
	}
	type info struct {
		owner int
		pred  memory.Addr // persisted predecessor node
		prev  memory.Addr // predecessor node (explicit or implicit), Nil if head
	}
	tail := memory.AsAddr(pk.Peek(l.tail))
	nodes := make(map[memory.Addr]*info, l.n)
	mine := make([]memory.Addr, l.n)
	for j := 0; j < l.n; j++ {
		w := pk.Peek(l.st[j])
		if st := w & stateMask; st != stateTrying && st != stateInCS && st != stateLeaving {
			continue
		}
		node := np.PeekNode(pk, j)
		if node == memory.Nil {
			continue
		}
		// A node is part of the queue only once its FAS has executed:
		// either the owner persisted its predecessor (pred != node) or
		// the tail still points at the node (FAS done, result lost).
		pred := stPred(w)
		if pred == node && tail != node {
			continue
		}
		mine[j] = node
		nodes[node] = &info{owner: j, pred: pred}
	}
	// Resolve predecessor links: explicit (pred's next == node) or
	// implicit (the persisted pred of a process that has performed its
	// FAS).
	for node, inf := range nodes {
		if inf.pred == node {
			continue
		}
		if _, live := nodes[inf.pred]; live {
			inf.prev = inf.pred
		}
	}
	// Build successor map from both explicit next fields and resolved
	// prev links.
	succ := make(map[memory.Addr]memory.Addr, len(nodes))
	hasPred := make(map[memory.Addr]bool, len(nodes))
	for node, inf := range nodes {
		if inf.prev != memory.Nil {
			succ[inf.prev] = node
			hasPred[node] = true
		}
	}
	for node := range nodes {
		nx := memory.AsAddr(pk.Peek(next(node)))
		if nx != memory.Nil && nx != node {
			if _, live := nodes[nx]; live {
				succ[node] = nx
				hasPred[nx] = true
			}
		}
	}
	var out []SubQueue
	for _, node := range mine { // deterministic order: heads by owner pid
		if node == memory.Nil || hasPred[node] {
			continue
		}
		q := SubQueue{}
		for cur := node; cur != memory.Nil; cur = succ[cur] {
			q.Owners = append(q.Owners, nodes[cur].owner)
			if cur == tail {
				q.AtTail = true
			}
			if succ[cur] == cur {
				break
			}
		}
		out = append(out, q)
	}
	return out
}
