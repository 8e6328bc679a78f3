// rme:sensitive-instructions 0 — read/write only; no FAS or CAS in this file.
//
// Package yalock implements the dual-port strongly recoverable 2-party
// lock used as the arbitrator in the paper's framework (Section 5.1).
//
// The paper instantiates the arbitrator with Golab and Ramaraju's
// recoverable transformation of Yang and Anderson's 2-process lock. This
// implementation keeps that algorithm's shape — a Peterson/Yang–Anderson
// style doorway (intent flags and a turn word) with strictly local
// spinning — and adds recoverability with a per-side state machine, an
// occupant word used to guard idempotent re-execution, and explicit
// wake-up signalling so waiters spin only on a word in their own memory
// module (O(1) RMRs per passage under both CC and DSM, in every failure
// scenario).
//
// Contract (inherited from the framework): the lock has two ports, Left
// and Right; at most one process attempts to acquire each side at any
// time, though which process occupies a side may change between
// acquisitions. A process that crashes mid-acquisition re-attempts the
// same side until its passage completes.
package yalock

import (
	"fmt"

	"rme/internal/memory"
)

// Side selects one of the arbitrator's two ports.
type Side int

// The two ports. In the framework the fast path enters from the Left and
// the slow path (through the core lock) from the Right.
const (
	Left  Side = 0
	Right Side = 1
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

func (s Side) other() Side { return 1 - s }

// Per-side recovery states. Idle is the zero value.
const (
	ssIdle memory.Word = iota
	ssTrying
	ssInCS
	ssLeaving
)

// Arbitrator is the dual-port strongly recoverable lock.
type Arbitrator struct {
	n int

	flag   [2]memory.Addr // intent of each side
	who    [2]memory.Addr // occupant of each side (pid+1, 0 if none)
	sstate [2]memory.Addr // recovery state of each side
	turn   memory.Addr    // Peterson turn word: the side stored yields
	spin   []memory.Addr  // per-process local spin words
}

// sharedWords is the number of shared words: turn, then flag, who and
// sstate for each side.
const sharedWords = 7

// New allocates an arbitrator for n processes in sp. The shared words
// are one allocation, so a native arena puts them on one cache line of
// their own: only the two sides' occupants touch them, and a waiter
// spins on its own spin word, never on them.
func New(sp memory.Space, n int) *Arbitrator {
	if n < 1 {
		panic(fmt.Sprintf("yalock: New n = %d", n))
	}
	base := sp.Alloc(sharedWords, memory.HomeNone)
	a := &Arbitrator{
		n:    n,
		turn: base,
		spin: make([]memory.Addr, n),
	}
	for s := 0; s < 2; s++ {
		side := base + 1 + 3*memory.Addr(s)
		a.flag[s], a.who[s], a.sstate[s] = side, side+1, side+2
	}
	for i := 0; i < n; i++ {
		a.spin[i] = sp.Alloc(1, i) // spin locally under DSM
	}
	return a
}

// Recover restores side s after a failure of its occupant. If the
// occupant crashed mid-Exit, the exit is completed; every other state is
// repaired by Enter's idempotent doorway. Bounded (BR).
func (a *Arbitrator) Recover(p memory.Port, s Side) {
	i := p.PID()
	if p.Read(a.sstate[s]) == ssLeaving && p.Read(a.who[s]) == memory.Word(i+1) {
		a.finishExit(p, s)
	}
}

// Enter acquires side s. At most one process may be attempting each side.
func (a *Arbitrator) Enter(p memory.Port, s Side) {
	i := p.PID()
	me := memory.Word(i + 1)
	o := s.other()

	switch p.Read(a.sstate[s]) {
	case ssInCS:
		if p.Read(a.who[s]) == me {
			return // crashed inside the CS: bounded re-entry (BCSR)
		}
		panic(fmt.Sprintf("yalock: side %v in CS is owned by %d, not %d (port contract violated)",
			s, p.Read(a.who[s]), i))
	case ssLeaving:
		// A previous exit on this side crashed after clearing the
		// occupant word; only the final state write is missing.
		if p.Read(a.who[s]) == 0 {
			p.Write(a.sstate[s], ssIdle)
		} else if p.Read(a.who[s]) == me {
			a.finishExit(p, s)
		} else {
			panic(fmt.Sprintf("yalock: side %v mid-exit by %d while %d enters (port contract violated)",
				s, p.Read(a.who[s]), i))
		}
	}

	// Doorway. Every step is idempotent: re-executing the doorway after
	// a crash is equivalent to a fresh competitor arriving, which the
	// Peterson-style argument already tolerates.
	p.Write(a.who[s], me)
	p.Write(a.sstate[s], ssTrying)
	p.Write(a.flag[s], 1)
	p.Write(a.spin[i], 0)
	p.Write(a.turn, memory.Word(s)) // yield: the side stored in turn waits

	// The turn write may have unblocked the rival; wake it so it can
	// re-evaluate its condition (it spins only on its local word).
	a.signal(p, o)

	// Wait while the rival is interested and it is our turn to yield.
	// The inner spin is on a local word; the outer re-check runs at most
	// a bounded number of times per rival passage, so the loop costs
	// O(1) RMRs overall.
	// rme:rmw-loop(the spin[i] reset re-runs only when the rival signals, at most O(1) times per rival passage, so the Write retry is bounded)
	for p.Read(a.flag[o]) != 0 && p.Read(a.turn) == memory.Word(s) {
		for p.Read(a.spin[i]) == 0 {
			p.Pause()
		}
		p.Write(a.spin[i], 0)
	}

	p.Write(a.sstate[s], ssInCS)
}

// Exit releases side s. Bounded and idempotent (BE): a crashed Exit is
// completed by Recover or by the next Enter on the side.
func (a *Arbitrator) Exit(p memory.Port, s Side) {
	if p.Read(a.who[s]) != memory.Word(p.PID()+1) {
		return // already fully released by this process
	}
	p.Write(a.sstate[s], ssLeaving)
	a.finishExit(p, s)
}

func (a *Arbitrator) finishExit(p memory.Port, s Side) {
	p.Write(a.flag[s], 0)
	a.signal(p, s.other())
	p.Write(a.who[s], 0)
	p.Write(a.sstate[s], ssIdle)
}

// signal wakes the current occupant of side o, if any. Spurious wake-ups
// are harmless: waiters always re-check their wait condition.
func (a *Arbitrator) signal(p memory.Port, o Side) {
	if p.Read(a.flag[o]) == 0 {
		return
	}
	if r := p.Read(a.who[o]); r != 0 && int(r-1) < a.n {
		p.Write(a.spin[r-1], 1)
	}
}

// Holder reports which side currently holds the lock (-1 if none), from a
// debug snapshot of shared memory.
func (a *Arbitrator) Holder(pk interface{ Peek(memory.Addr) memory.Word }) Side {
	for s := Side(0); s < 2; s++ {
		if pk.Peek(a.sstate[s]) == ssInCS {
			return s
		}
	}
	return Side(-1)
}

// TwoProcess adapts the arbitrator to a 2-process lock: process 0 enters
// through the Left port and process 1 through the Right. It satisfies the
// simulator's Lock interface for contention and RMR measurements of the
// arbitrator in isolation.
type TwoProcess struct {
	a *Arbitrator
}

// NewTwoProcess allocates a two-process arbitrator adapter in sp. n must
// be 2.
func NewTwoProcess(sp memory.Space, n int) *TwoProcess {
	if n != 2 {
		panic(fmt.Sprintf("yalock: NewTwoProcess n = %d, want 2", n))
	}
	return &TwoProcess{a: New(sp, n)}
}

func (l *TwoProcess) side(p memory.Port) Side {
	if p.PID() == 0 {
		return Left
	}
	return Right
}

// Recover implements the Recover segment.
func (l *TwoProcess) Recover(p memory.Port) { l.a.Recover(p, l.side(p)) }

// Enter implements the Enter segment.
func (l *TwoProcess) Enter(p memory.Port) { l.a.Enter(p, l.side(p)) }

// Exit implements the Exit segment.
func (l *TwoProcess) Exit(p memory.Port) { l.a.Exit(p, l.side(p)) }

// Abort backs the process out after an unwound Enter. Exit already does
// exactly this from every state: its occupant guard makes it a no-op when
// the doorway was never written, and from ssTrying it retracts the doorway
// (flag cleared, rival signalled) — the property the framework relies on
// to make the arbitrator stage abortable without waiting.
func (l *TwoProcess) Abort(p memory.Port) { l.a.Exit(p, l.side(p)) }
