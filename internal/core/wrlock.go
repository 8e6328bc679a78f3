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
//   - per-process state (state, mine, pred) lives in shared memory and is
//     advanced only at the end of idempotent blocks, so re-executing a
//     block after a crash is harmless;
//   - the outcomes of the CAS instructions on next fields and on tail are
//     never used — the fields are re-read instead — making those steps
//     idempotent;
//   - the only sensitive instruction (Definition 3.3) is the FAS on tail:
//     a crash between the FAS and persisting its result into pred[i]
//     strands the process's node at the head of a new sub-queue. Recover
//     detects this (pred[i] still equals mine[i]), relinquishes the node
//     via the wait-free exit, and retries with a fresh node.
//
// Every passage — Recover, Enter and Exit together — performs O(1) RMRs
// under both the CC and DSM models, regardless of failures (Theorem 4.7).
type WRLock struct {
	n    int
	name string

	tail  memory.Addr
	state []memory.Addr
	mine  []memory.Addr
	pred  []memory.Addr

	src          NodeSource
	fasLabel     string
	handoffLabel string
	abandonLabel string
}

// NewWRLock allocates a weakly recoverable lock for n processes in sp.
// name distinguishes instances in instruction labels (the sensitive FAS is
// labeled "<name>:fas", which failure plans use to target unsafe
// failures). src supplies queue nodes; nil selects AllocSource.
func NewWRLock(sp memory.Space, n int, name string, src NodeSource) *WRLock {
	if n < 1 {
		panic(fmt.Sprintf("core: NewWRLock n = %d", n))
	}
	if src == nil {
		src = AllocSource{}
	}
	l := &WRLock{
		n:            n,
		name:         name,
		tail:         sp.Alloc(1, memory.HomeNone),
		state:        make([]memory.Addr, n),
		mine:         make([]memory.Addr, n),
		pred:         make([]memory.Addr, n),
		src:          src,
		fasLabel:     name + ":fas",
		handoffLabel: name + ":handoff",
		abandonLabel: name + ":abandon",
	}
	for i := 0; i < n; i++ {
		// Per-process words live in the process's own memory module so
		// that reading one's own state is local under DSM.
		l.state[i] = sp.Alloc(1, i)
		l.mine[i] = sp.Alloc(1, i)
		l.pred[i] = sp.Alloc(1, i)
	}
	return l
}

// Name returns the instance name.
func (l *WRLock) Name() string { return l.name }

// FASLabel returns the label carried by the sensitive FAS instruction.
func (l *WRLock) FASLabel() string { return l.fasLabel }

func locked(node memory.Addr) memory.Addr { return node + offLocked }
func next(node memory.Addr) memory.Addr   { return node + offNext }

// Recover implements the Recover segment of Algorithm 2. It runs a
// bounded number of steps (BR property, Theorem 4.6).
func (l *WRLock) Recover(p memory.Port) {
	i := p.PID()
	switch p.Read(l.state[i]) {
	case stateTrying:
		if p.Read(l.pred[i]) == p.Read(l.mine[i]) {
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
	if p.Read(l.state[i]) == stateFree {
		p.Write(l.mine[i], memory.FromAddr(memory.Nil))
		p.Write(l.state[i], stateInitializing)
	}
}

// Enter implements the Enter segment of Algorithm 2.
func (l *WRLock) Enter(p memory.Port) {
	i := p.PID()
	if p.Read(l.state[i]) == stateInitializing {
		if memory.AsAddr(p.Read(l.mine[i])) == memory.Nil {
			node := l.src.NewNode(p)
			p.Write(l.mine[i], memory.FromAddr(node))
		}
		node := memory.AsAddr(p.Read(l.mine[i]))
		p.Write(next(node), memory.FromAddr(memory.Nil))
		p.Write(locked(node), memory.Bool(true))
		// Setting pred[i] = mine[i] lets Recover detect a failure
		// during the FAS step below.
		p.Write(l.pred[i], memory.FromAddr(node))
		p.Write(l.state[i], stateTrying)
	}

	if p.Read(l.state[i]) == stateTrying {
		node := memory.AsAddr(p.Read(l.mine[i]))
		if memory.AsAddr(p.Read(l.pred[i])) == node {
			// Append my node to the queue. This FAS is the single
			// sensitive instruction of the algorithm.
			p.Label(l.fasLabel)
			temp := p.FAS(l.tail, memory.FromAddr(node)) // rme:sensitive
			// Persist the result of the FAS.
			p.Write(l.pred[i], temp)
		}

		pred := memory.AsAddr(p.Read(l.pred[i]))
		if pred != memory.Nil {
			// Create the link to the predecessor. The outcome of the
			// CAS is deliberately ignored; the field is re-read so
			// the step is idempotent across failures.
			p.CAS(next(pred), memory.FromAddr(memory.Nil), memory.FromAddr(node)) // rme:nonsensitive(outcome ignored and field re-read; idempotent across crashes)
			if memory.AsAddr(p.Read(next(pred))) == node {
				// Wait for the predecessor to complete.
				for memory.AsBool(p.Read(locked(node))) {
					p.Pause()
				}
			}
			// Otherwise next(pred) holds the predecessor's own
			// address: the lock was released wait-free and is ours.
		}
		p.Write(l.state[i], stateInCS)
	}
}

// Exit implements the Exit segment of Algorithm 2. It runs a bounded
// number of steps (BE property, Theorem 4.6).
func (l *WRLock) Exit(p memory.Port) {
	i := p.PID()
	p.Write(l.state[i], stateLeaving)
	node := memory.AsAddr(p.Read(l.mine[i]))

	// Remove my node from the queue if it has no successor. The outcome
	// is ignored (idempotent; see Section 4.3).
	p.CAS(l.tail, memory.FromAddr(node), memory.FromAddr(memory.Nil)) // rme:nonsensitive(outcome ignored; repeating the CAS after a crash is a no-op)
	// May have a successor: mark the next field with my own address so a
	// late-linking successor learns the lock is free (wait-free signal).
	p.CAS(next(node), memory.FromAddr(memory.Nil), memory.FromAddr(node)) // rme:nonsensitive(wait-free exit signal; succeeds at most once and re-running it is a no-op)

	if nxt := memory.AsAddr(p.Read(next(node))); nxt != node {
		// The link was already created; tell the successor to stop
		// spinning.
		p.Label(l.handoffLabel)
		p.Write(locked(nxt), memory.Bool(false))
	}

	l.src.Retire(p)
	p.Write(l.state[i], stateFree)
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
	switch p.Read(l.state[i]) {
	case stateFree, stateInitializing:
		// Nothing is queued: the node (if any) was never shared, and the
		// next Enter reuses or reinitializes it idempotently.
		return
	case stateTrying:
		node := memory.AsAddr(p.Read(l.mine[i]))
		pred := memory.AsAddr(p.Read(l.pred[i]))
		if pred == node || pred == memory.Nil || !memory.AsBool(p.Read(locked(node))) {
			// FAS undecided (relinquish like Recover), queue was empty
			// (the lock is ours), or the handoff already arrived: a
			// plain Exit backs out without touching anyone else's state.
			l.Exit(p)
			return
		}
		// Queued behind a live predecessor: abandon mid-queue. Persist
		// the abort before mutating the queue so a crash inside the
		// dance resumes it from Recover.
		p.Write(l.state[i], stateAborted)
		l.finishAbandon(p)
	case stateInCS, stateLeaving:
		l.Exit(p)
	case stateAborted:
		l.finishAbandon(p)
	}
}

// finishAbandon runs the abandon dance from persisted state (state[i] ==
// stateAborted): the Exit segment's own idempotent instruction sequence,
// ending in an ordinary retire. The abandoned predecessor may still owe
// the node a handoff write (locked ← false), but that stale reference is
// precisely the situation the paper's reclamation algorithm (Section 7.2,
// Algorithm 4) is built for: a slot is reused only after a full epoch
// scan that started after the retire, and that scan waits for every
// request in flight at its start — including the predecessor's hold,
// whose Exit lands the handoff before its own retire. Retiring eagerly
// also keeps the pool live: a deferred retire would leave this process's
// in-counter ahead of its out-counter, and if it never returned, every
// other process's epoch scan would eventually wait on it forever.
func (l *WRLock) finishAbandon(p memory.Port) {
	i := p.PID()
	node := memory.AsAddr(p.Read(l.mine[i]))
	if node == memory.Nil {
		// A previous run of the dance already retired the node and was
		// interrupted between clearing mine and the final state write.
		p.Write(l.state[i], stateFree)
		return
	}
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
	// Retire is idempotent (a crash anywhere in the dance re-runs it as a
	// no-op), and the epoch delay above makes the predecessor's pending
	// handoff write against the retired node harmless.
	l.src.Retire(p)
	p.Write(l.mine[i], memory.FromAddr(memory.Nil))
	p.Write(l.state[i], stateFree)
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

// SubQueues reconstructs the current sub-queue structure from shared
// memory, exactly as the paper's Proposition 4.1 argues is possible: each
// in-flight process contributes its node (mine) and its persisted
// predecessor (pred), and explicit next links plus implicit pred links are
// stitched into chains. Fragmentation (more than one sub-queue) appears
// only after unsafe failures.
func (l *WRLock) SubQueues(pk Peeker) []SubQueue {
	type info struct {
		owner int
		prev  memory.Addr // predecessor node (explicit or implicit), Nil if head
	}
	tail := memory.AsAddr(pk.Peek(l.tail))
	nodes := make(map[memory.Addr]*info, l.n)
	for j := 0; j < l.n; j++ {
		st := pk.Peek(l.state[j])
		if st != stateTrying && st != stateInCS && st != stateLeaving {
			continue
		}
		node := memory.AsAddr(pk.Peek(l.mine[j]))
		if node == memory.Nil {
			continue
		}
		// A node is part of the queue only once its FAS has executed:
		// either the owner persisted its predecessor (pred != mine) or
		// the tail still points at the node (FAS done, result lost).
		if memory.AsAddr(pk.Peek(l.pred[j])) == node && tail != node {
			continue
		}
		nodes[node] = &info{owner: j, prev: memory.Nil}
	}
	// Resolve predecessor links: explicit (pred's next == node) or
	// implicit (the persisted pred[j] of a process that has performed
	// its FAS).
	for node, inf := range nodes {
		pr := memory.AsAddr(pk.Peek(l.pred[inf.owner]))
		if pr == memory.Nil || pr == node || memory.AsAddr(pk.Peek(l.mine[inf.owner])) != node {
			continue
		}
		if _, live := nodes[pr]; live {
			inf.prev = pr
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
	for j := 0; j < l.n; j++ { // deterministic order: heads by owner pid
		node := memory.AsAddr(pk.Peek(l.mine[j]))
		inf, ok := nodes[node]
		if !ok || inf.owner != j || hasPred[node] {
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
