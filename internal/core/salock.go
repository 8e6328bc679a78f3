package core

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/yalock"
)

// RecoverableLock is a (strongly or weakly) recoverable mutual exclusion
// algorithm following the paper's execution model. It is structurally
// identical to sim.Lock so locks flow freely between the framework and the
// simulator.
type RecoverableLock interface {
	Recover(p memory.Port)
	Enter(p memory.Port)
	Exit(p memory.Port)
}

// Path types stored in type[i]. Fast is the zero value, matching the
// paper's initialization (type[j] ← FAST).
const (
	pathFast memory.Word = iota
	pathSlow
)

// SALock is the semi-adaptive framework lock of Section 5.1 (Algorithm 3,
// Figure 2). A process first acquires the weakly recoverable filter lock,
// then navigates the splitter: the fast path leads directly to the Left
// port of the arbitrator; losers commit to the slow path, acquire the
// core lock, and enter the arbitrator from the Right.
//
// With a strongly recoverable core lock of worst-case RMR complexity
// T(n), SALock is strongly recoverable with O(1) RMRs per failure-free
// passage and O(T(n)) with failures (Theorems 5.5, 5.6).
type SALock struct {
	n      int
	name   string
	filter *WRLock
	split  *Splitter
	core   RecoverableLock
	arb    *yalock.Arbitrator
	typ    []memory.Addr

	slowLabel string

	// level is the 1-based BA-Lock level this instance sits at (1 for a
	// standalone SALock); phase, when set, observes pipeline transitions.
	level int
	phase PhaseHook
}

// NewSALock allocates a semi-adaptive lock named name for n processes.
// core must be a strongly recoverable lock (it guards the arbitrator's
// Right port). src supplies nodes to the filter lock; nil selects
// AllocSource.
func NewSALock(sp memory.Space, n int, name string, core RecoverableLock, src NodeSource) *SALock {
	if core == nil {
		panic("core: NewSALock requires a core lock")
	}
	l := &SALock{
		n:         n,
		name:      name,
		filter:    NewWRLock(sp, n, name, src),
		split:     NewNamedSplitter(sp, name),
		core:      core,
		arb:       yalock.New(sp, n),
		typ:       make([]memory.Addr, n),
		slowLabel: name + ":slow",
		level:     1,
	}
	for i := 0; i < n; i++ {
		l.typ[i] = sp.Alloc(1, i)
	}
	return l
}

// Name returns the instance name (also the filter lock's name).
func (l *SALock) Name() string { return l.name }

// Filter exposes the filter lock (for diagnostics and experiments).
func (l *SALock) Filter() *WRLock { return l.filter }

// Core exposes the core lock.
func (l *SALock) Core() RecoverableLock { return l.core }

// Splitter exposes the splitter.
func (l *SALock) Splitter() *Splitter { return l.split }

// SlowLabel returns the label carried by the instruction that commits a
// process to the slow path; harnesses count it to measure escalation.
func (l *SALock) SlowLabel() string { return l.slowLabel }

// SetPhaseHook installs h (nil removes it) as the observer of this
// instance's pipeline transitions, reported at this lock's level.
func (l *SALock) SetPhaseHook(h PhaseHook) { l.phase = h }

func (l *SALock) enterPhase(pid int, ph PhaseKind) {
	if l.phase != nil {
		l.phase(pid, ph, l.level)
	}
}

func (l *SALock) side(p memory.Port) yalock.Side {
	if p.Read(l.typ[p.PID()]) == pathSlow {
		return yalock.Right
	}
	return yalock.Left
}

// Recover is empty: following Algorithm 3, each component recoverable
// lock runs its Recover segment immediately before its Enter segment.
func (l *SALock) Recover(p memory.Port) {}

// Enter implements the Enter segment of Algorithm 3.
func (l *SALock) Enter(p memory.Port) {
	i := p.PID()

	l.enterPhase(i, PhaseFilter)
	l.filter.Recover(p)
	l.filter.Enter(p)

	l.enterPhase(i, PhaseSplitter)
	if p.Read(l.typ[i]) != pathSlow { // not yet committed to the slow path
		l.split.Try(p) // attempt to take the fast path
	}
	if !l.split.Mine(p) { // unable to take the fast path
		p.Label(l.slowLabel)
		p.Write(l.typ[i], pathSlow) // committed to the slow path
		l.enterPhase(i, PhaseCore)
		l.core.Recover(p)
		l.core.Enter(p)
	} else {
		l.enterPhase(i, PhaseFast)
	}

	l.enterPhase(i, PhaseArbitrator)
	l.arb.Enter(p, l.side(p))
}

// Exit implements the Exit segment of Algorithm 3: components are
// released in the reverse order of acquisition.
func (l *SALock) Exit(p memory.Port) {
	i := p.PID()

	l.arb.Exit(p, l.side(p))

	if p.Read(l.typ[i]) == pathSlow {
		l.core.Exit(p)
		p.Write(l.typ[i], pathFast) // reset the path type to its default
	} else {
		l.split.Release(p) // the fast path is now empty
	}

	l.filter.Exit(p)
}

// Abort implements Aborter: it backs the process out of however much of
// the pipeline it holds, in Exit's release order, after its Enter was
// unwound at an instruction boundary (DESIGN §15). Components never
// reached release as no-ops: the arbitrator's Exit writes nothing unless
// this process occupies the side (it still signals the rival, which
// repairs a wake-up lost to a crash in the previous Exit), the splitter
// is released only when Mine, and the filter's Abort handles every state
// including "never entered".
// Every step is crash-idempotent, so a crash mid-abort is repaired by the
// next passage's normal Recover+Enter (which then re-acquires).
func (l *SALock) Abort(p memory.Port) {
	i := p.PID()

	// The arbitrator releases from the side the path commitment selects;
	// Exit works from ssTrying too (doorway retraction), which is what
	// makes the final pipeline stage abortable without waiting.
	l.arb.Exit(p, l.side(p))

	if p.Read(l.typ[i]) == pathSlow {
		if a, ok := l.core.(Aborter); ok {
			a.Abort(p)
		} else {
			// Non-abortable core: complete the acquisition, then
			// release it (abort degrades to acquire-then-release).
			l.core.Recover(p)
			l.core.Enter(p)
			l.core.Exit(p)
		}
		p.Write(l.typ[i], pathFast)
	} else if l.split.Mine(p) {
		// Unlike Exit, the fast path is released only when actually
		// held: an abort can fire before the splitter was won.
		l.split.Release(p)
	}

	l.filter.Abort(p)
}

// Describe returns a one-line structural description (Figure 2).
func (l *SALock) Describe() string {
	return fmt.Sprintf("%s: filter(WR) → splitter → {fast | core} → arbitrator", l.name)
}
