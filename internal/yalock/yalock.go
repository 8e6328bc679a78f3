// rme:sensitive-instructions 0 — read/write only; no FAS or CAS in this file.
//
// Package yalock implements the dual-port strongly recoverable 2-party
// lock used as the arbitrator in the paper's framework (Section 5.1).
//
// The paper instantiates the arbitrator with Golab and Ramaraju's
// recoverable transformation of Yang and Anderson's 2-process lock. This
// implementation keeps that algorithm's shape — a Peterson/Yang–Anderson
// style doorway (one word per side holding its intent and identity, and
// a turn word) with strictly local spinning — and adds recoverability
// with a per-side state kept in that same word, so a side moves between
// states in one write, and explicit wake-up signalling so waiters spin
// only on a word in their own memory module (O(1) RMRs per passage under
// both CC and DSM, in every failure scenario).
//
// Contract (inherited from the framework): the lock has two ports, Left
// and Right; at most one process attempts to acquire each side at any
// time, though which process occupies a side may change between
// acquisitions. A process that crashes mid-passage re-attempts the same
// side, starting from Enter, until its passage completes.
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

// Per-side states, the low two bits of a side word. Idle is the zero
// value, and an Idle side has no occupant, so a free side is the word 0.
// A side is interested (Peterson's flag) while Trying or InCS.
const (
	ssIdle memory.Word = iota
	ssTrying
	ssInCS

	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// sideWord packs a side's occupant (pid+1) and state.
func sideWord(me, st memory.Word) memory.Word { return me<<stateBits | st }

// Arbitrator is the dual-port strongly recoverable lock.
type Arbitrator struct {
	n int

	turn memory.Addr    // Peterson turn word: the side stored yields
	side [2]memory.Addr // occupant (pid+1) << 2 | state of each side
	spin []memory.Addr  // per-process local spin words
}

// sharedWords is the number of shared words: turn, then each side's word.
const sharedWords = 3

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
		side: [2]memory.Addr{base + 1, base + 2},
		spin: make([]memory.Addr, n),
	}
	for i := 0; i < n; i++ {
		a.spin[i] = sp.Alloc(1, i) // spin locally under DSM
	}
	return a
}

// Enter acquires side s. At most one process may be attempting each side.
// Enter needs no Recover before it: a side leaves InCS in one write, so
// no state is left half-finished for recovery to complete.
func (a *Arbitrator) Enter(p memory.Port, s Side) {
	i := p.PID()
	me := memory.Word(i + 1)
	o := s.other()

	if w := p.Read(a.side[s]); w&stateMask == ssInCS {
		if owner := w >> stateBits; owner != me {
			panic(fmt.Sprintf("yalock: side %v in CS is owned by %d, not %d (port contract violated)",
				s, owner-1, i))
		}
		return // crashed inside the CS: bounded re-entry (BCSR)
	}

	// Doorway. Every step is idempotent: re-executing the doorway after
	// a crash is equivalent to a fresh competitor arriving, which the
	// Peterson-style argument already tolerates. The first write sets
	// the intent before anything of the rival is read, as Peterson's
	// order requires.
	p.Write(a.side[s], sideWord(me, ssTrying))

	// Peterson's fast path: an Idle rival is not interested, so the
	// lock is ours without a turn write. Both sides write their intent
	// before reading the other's, so of two concurrent entrants at most
	// one sees the other Idle; the other writes turn and waits. A fast
	// entrant has no rival to wake, and a stale wake-up in its spin word
	// is dropped on its next slow entry.
	if p.Read(a.side[o])&stateMask == ssIdle {
		p.Write(a.side[s], sideWord(me, ssInCS))
		return
	}

	if p.Read(a.spin[i]) != 0 {
		p.Write(a.spin[i], 0) // drop a stale wake-up
	}
	p.Write(a.turn, memory.Word(s)) // yield: the side stored in turn waits

	// The turn write may have unblocked the rival; wake it so it can
	// re-evaluate its condition (it spins only on its local word). This
	// signal also repairs a wake-up lost when this side's previous Exit
	// crashed between its write and its signal: the crashed passage
	// restarts at Enter and passes through here. It re-reads the rival's
	// side rather than reuse the read above: the occupant may have
	// changed since, and a new occupant that wrote turn before ours now
	// waits for this wake-up.
	a.signal(p, o)

	// Wait while the rival is interested and it is our turn to yield.
	// The inner spin is on a local word; the outer re-check runs at most
	// a bounded number of times per rival passage, so the loop costs
	// O(1) RMRs overall.
	// rme:rmw-loop(the spin[i] reset re-runs only when the rival signals, at most O(1) times per rival passage, so the Write retry is bounded)
	for p.Read(a.side[o])&stateMask != ssIdle && p.Read(a.turn) == memory.Word(s) {
		for p.Read(a.spin[i]) == 0 {
			p.Pause()
		}
		p.Write(a.spin[i], 0)
	}

	p.Write(a.side[s], sideWord(me, ssInCS))
}

// Exit releases side s, from InCS or, retracting the doorway, from
// Trying, and signals the rival. Bounded and idempotent (BE): the side
// goes to Idle in one write, and once this process no longer occupies
// it Exit only signals. A crash after that write loses at most the
// rival's signal; every later Exit of the side sends it again, whether
// the restarted passage re-runs Exit or backs out through it, and so
// does the restarted passage's Enter.
func (a *Arbitrator) Exit(p memory.Port, s Side) {
	if p.Read(a.side[s])>>stateBits == memory.Word(p.PID()+1) {
		p.Write(a.side[s], sideWord(0, ssIdle))
	}
	a.signal(p, s.other())
}

// signal wakes the current occupant of side o, if it is Trying: only a
// Trying occupant can be waiting. An InCS occupant is not waiting, and
// before it can wait it must Exit and enter again, writing turn after
// this read; it then waits only while the signaller is interested, and
// the signaller's Exit wakes it (DESIGN §5 item 5). Spurious wake-ups are harmless: waiters always re-check their wait
// condition.
func (a *Arbitrator) signal(p memory.Port, o Side) {
	w := p.Read(a.side[o])
	if w&stateMask != ssTrying {
		return
	}
	if r := w >> stateBits; r != 0 && int(r-1) < a.n {
		p.Write(a.spin[r-1], 1)
	}
}

// Holder reports which side currently holds the lock (-1 if none), from a
// debug snapshot of shared memory.
func (a *Arbitrator) Holder(pk interface{ Peek(memory.Addr) memory.Word }) Side {
	for s := Side(0); s < 2; s++ {
		if pk.Peek(a.side[s])&stateMask == ssInCS {
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

// Recover implements the Recover segment; the arbitrator needs none.
func (l *TwoProcess) Recover(p memory.Port) {}

// Enter implements the Enter segment.
func (l *TwoProcess) Enter(p memory.Port) { l.a.Enter(p, l.side(p)) }

// Exit implements the Exit segment.
func (l *TwoProcess) Exit(p memory.Port) { l.a.Exit(p, l.side(p)) }

// Abort backs the process out after an unwound Enter. Exit already does
// exactly this from every state: its occupant guard leaves the side alone
// when the doorway was never written, and from ssTrying it retracts the
// doorway (side cleared) — the property the framework relies on to make
// the arbitrator stage abortable without waiting. Either way it signals
// the rival, which repairs a wake-up lost to a crash in the previous Exit.
func (l *TwoProcess) Abort(p memory.Port) { l.a.Exit(p, l.side(p)) }
