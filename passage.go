package rme

import (
	"context"
	"fmt"

	"rme/internal/core"
	"rme/internal/flight"
	"rme/internal/memory"
	"rme/internal/metrics"
)

// engine runs the paper's passage — Recover, Enter, critical section,
// Exit — for both front ends, plus the abortable-RME back-out and the
// own-PID crash accounting. A Mutex is the one-lock case: every process's
// target is fixed at New. A Map rebinds a process's target to the key's
// lock at the start of each acquisition and unbinds it when the process
// is done with the key.
type engine struct {
	fail  memory.FailFunc  // composed WithFailures/WithLabeledFailures
	fr    *flight.Recorder // nil unless WithTracing
	procs []proc
	keys  *Map // nil for a Mutex
}

// proc is one process's private passage state, written only by the
// goroutine acting as that process and padded so neighbouring processes'
// states never share a cache line. It lives outside the arena, so the
// cancellation poll reads it without a shared-memory instruction and the
// failure-free passage's RMR count is untouched. A Mutex binds it once
// at New; a Map's engagement survives an injected crash only because a
// panic does not erase Go memory.
type proc struct {
	// done is the pending LockCtx's ctx.Done() while it runs Recover and
	// Enter, nil otherwise. The port's Pause hook polls it on the same
	// goroutine, so it needs no synchronization.
	done <-chan struct{}
	lock *core.BALock
	port memory.Port
	rec  *metrics.Recorder // metrics for port; nil unless WithMetrics
	e    *region           // Map only: the engaged key's region, nil when none
	inCS bool              // acquired and not released; a Map engages no other key
	_    [15]byte          // pad to one cache line
}

func newEngine(n int, cfg *config) engine {
	g := engine{procs: make([]proc, n)}
	// The fail hook runs before every instruction of a hooked port, so it
	// is built from only the options that are set.
	switch plain, labeled := cfg.fail, cfg.labelFail; {
	case plain != nil && labeled != nil:
		g.fail = func(pid int, op memory.OpInfo) bool { return plain(pid) || labeled(pid, op.Label) }
	case plain != nil:
		g.fail = func(pid int, _ memory.OpInfo) bool { return plain(pid) }
	case labeled != nil:
		g.fail = func(pid int, op memory.OpInfo) bool { return labeled(pid, op.Label) }
	}
	if cfg.tracing {
		g.fr = flight.NewRecorder(n, flight.DefaultRingSize)
		g.fr.SetEnabled(!cfg.tracingOpts.Disabled)
	}
	return g
}

// shiftPort is a port whose frame a Map shifts onto a region
// (NativePort.SetOffset): the native port, or the counting wrapper
// around it.
type shiftPort interface {
	memory.Port
	SetOffset(off memory.Addr)
}

// port creates process pid's port onto arena: failure injection, the
// cancellation poll, label observation for the flight recorder, and the
// counting wrapper when rec is non-nil.
func (g *engine) port(arena *memory.NativeArena, pid int, rec *metrics.Recorder) shiftPort {
	np := arena.Port(pid, g.fail)
	s := &g.procs[pid]
	np.SetAbortHook(func(int) bool {
		select {
		case <-s.done:
			return true
		default:
			return false
		}
	})
	if fr := g.fr; fr != nil {
		np.SetLabelHook(func(l string) {
			if fr.Enabled() {
				fr.ObserveLabel(pid, l)
			}
		})
	}
	if rec != nil {
		return rec.Port(np)
	}
	return np
}

// watch reports lock's pipeline phase transitions to the flight recorder.
func (g *engine) watch(lock *core.BALock) {
	if fr := g.fr; fr != nil {
		lock.SetPhaseHook(func(pid int, ph core.PhaseKind, level int) {
			if fr.Enabled() {
				fr.Phase(pid, flightPhaseKind(ph), level)
			}
		})
	}
}

func (g *engine) proc(pid int) *proc {
	if pid < 0 || pid >= len(g.procs) {
		panic(fmt.Sprintf("rme: pid %d out of range [0,%d)", pid, len(g.procs)))
	}
	return &g.procs[pid]
}

// lock acquires pid's lock (binding pid to key's lock first on a Map),
// running the Recover and Enter segments. Cancellation is observed at
// three points, each closing the attempt as exactly one aborted attempt —
// never a passage — with the process holding nothing: before the lock is
// touched, while spinning (the process backs out crash-safely), and in the
// instant after acquiring (the lock is released). It returns nil on
// acquisition and ctx.Err() on cancellation. An injected crash panics
// through with the ErrCrash sentinel and leaves the attempt open.
func (g *engine) lock(ctx context.Context, pid int, key string) error {
	s := g.proc(pid)
	if g.keys != nil {
		g.keys.begin(pid, key)
	}
	o := g.observer(s)
	o.start(pid)
	switch {
	case ctx.Err() != nil:
		// Already cancelled: the lock is never touched, but the attempt
		// still counts, so abort-rate denominators match the mid-spin
		// path (a TryLockFor with a non-positive deadline lands here).
	case s.enter(pid, ctx.Done()):
		// Cancelled while spinning: the abandoned queue state is
		// persisted first, so a crash mid-back-out is repaired by the
		// next Lock.
		s.lock.Abort(s.port)
	case ctx.Err() != nil:
		// Cancelled in the instant between the last spin and holding the
		// lock: the caller never gets the critical section, so release,
		// with no CS enter/exit in the flight recording.
		s.lock.Exit(s.port)
	default:
		s.inCS = true
		o.csEnter(pid)
		return nil
	}
	o.abort(pid)
	g.release(pid)
	// A context sets Err before it closes Done, so this is non-nil on
	// every path here.
	return ctx.Err()
}

// enter runs Recover and Enter with the Pause hook polling done (nil
// never fires), and reports whether the poll fired — the process's own
// ErrAbort unwind. The poll is disarmed on every way out, so a stale
// channel can never abort a later acquisition or the back-out itself.
// Any other panic, including ErrCrash, propagates.
func (s *proc) enter(pid int, done <-chan struct{}) (aborted bool) {
	s.done = done
	defer func() {
		s.done = nil
		if e := recover(); e != nil {
			if ab, ok := e.(memory.ErrAbort); ok && ab.PID == pid {
				aborted = true
				return
			}
			panic(e)
		}
	}()
	s.lock.Recover(s.port)
	s.lock.Enter(s.port)
	return false
}

// unlock runs the Exit segment as pid and closes the passage.
func (g *engine) unlock(pid int) {
	s := g.proc(pid)
	o := g.observer(s)
	o.csExit(pid)
	s.lock.Exit(s.port)
	o.end(pid)
	g.release(pid)
}

// release ends pid's engagement after a closed passage or attempt.
func (g *engine) release(pid int) {
	g.procs[pid].inCS = false
	if g.keys != nil {
		g.keys.finish(pid)
	}
}

// passage runs lock, cs and unlock. It reports ok=false with a nil error
// when pid's own crash sentinel interrupted the passage, and (false,
// ctx.Err()) on cancellation. An ErrCrash carrying a different PID (a
// Crash(otherPid) raised inside cs, or a nested lock's injected failure
// unwinding through this one) is not this passage's failure and
// propagates as a panic.
func (g *engine) passage(ctx context.Context, pid int, key string, cs func()) (ok bool, err error) {
	defer func() {
		if e := recover(); e != nil {
			if crash, crashed := e.(memory.ErrCrash); !crashed || crash.PID != pid {
				panic(e)
			}
			g.observer(&g.procs[pid]).crash(pid)
			ok, err = false, nil
		}
	}()
	if err := g.lock(ctx, pid, key); err != nil {
		return false, err
	}
	cs()
	g.unlock(pid)
	return true, nil
}

// observer fans passage events out to the metrics recorder of the
// process's target and to the flight recorder; either may be nil.
type observer struct {
	rec *metrics.Recorder
	fr  *flight.Recorder
}

func (g *engine) observer(s *proc) observer { return observer{s.rec, g.fr} }

// recording reports whether the flight recorder is present and enabled.
// The Recorder's methods are too large to inline, so testing the flag
// here, and in the hooks above, keeps a disabled recorder at one flag
// load per site instead of a call.
func (o observer) recording() bool { return o.fr != nil && o.fr.Enabled() }

func (o observer) start(pid int) {
	if o.rec != nil {
		o.rec.PassageStart(pid)
	}
	if o.recording() {
		o.fr.PassageBegin(pid)
	}
}

func (o observer) end(pid int) {
	if o.rec != nil {
		o.rec.PassageEnd(pid)
	}
	if o.recording() {
		o.fr.PassageEnd(pid)
	}
}

func (o observer) abort(pid int) {
	if o.rec != nil {
		o.rec.Abort(pid)
	}
	if o.recording() {
		o.fr.Abort(pid)
	}
}

func (o observer) crash(pid int) {
	if o.rec != nil {
		o.rec.Crash(pid)
	}
	if o.recording() {
		o.fr.Crash(pid)
	}
}

func (o observer) csEnter(pid int) {
	if o.recording() {
		o.fr.CSEnter(pid)
	}
}

func (o observer) csExit(pid int) {
	if o.recording() {
		o.fr.CSExit(pid)
	}
}

// The tracing accessors shared by Mutex and Map.

func (g *engine) setTracing(on bool) {
	if g.fr != nil {
		g.fr.SetEnabled(on)
	}
}

func (g *engine) tracingEnabled() bool { return g.fr != nil && g.fr.Enabled() }

func (g *engine) flightRecording() (*flight.Recording, bool) {
	if g.fr == nil {
		return nil, false
	}
	return g.fr.Snapshot(), true
}

func (g *engine) flightProfile() (flight.Profile, bool) {
	if g.fr == nil {
		return flight.Profile{}, false
	}
	return g.fr.Profile(), true
}

// flightPhaseKind maps a core pipeline phase to its flight event kind.
func flightPhaseKind(ph core.PhaseKind) flight.Kind {
	switch ph {
	case core.PhaseFilter:
		return flight.KindPhaseFilter
	case core.PhaseSplitter:
		return flight.KindPhaseSplitter
	case core.PhaseFast:
		return flight.KindPhaseFast
	case core.PhaseCore:
		return flight.KindPhaseCore
	case core.PhaseArbitrator:
		return flight.KindPhaseArbitrator
	}
	panic(fmt.Sprintf("rme: unknown phase %v", ph))
}
