package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rme"
	"rme/internal/core"
	"rme/internal/grlock"
	"rme/internal/mcs"
	"rme/internal/memory"
	"rme/internal/reclaim"
)

// product is the public-API object a workload measures, with the target
// that drives it the way the workload's callers do.
type product struct {
	target
	footprint func() int
	plan      *faultPlan // nil unless the workload injects crashes
	mutex     *rme.Mutex // exactly one of mutex and keyed is set
	keyed     *rme.Map
}

// newProduct builds the workload's product with extra options (the
// observers). stream separates the fault-plan streams of the instances
// one run builds.
func newProduct(w workload, seed, stream uint64, opts ...rme.Option) (*product, error) {
	p := &product{}
	if w.faults {
		p.plan = newFaultPlan(seed, stream)
		opts = append(opts, rme.WithLabeledFailures(p.plan.labeled))
	}
	if w.keyed {
		ma, err := rme.NewMap(procs, opts...)
		if err != nil {
			return nil, err
		}
		p.keyed, p.target, p.footprint = ma, mapPassage{ma}, ma.Footprint
		return p, nil
	}
	m, err := rme.New(procs, opts...)
	if err != nil {
		return nil, err
	}
	p.mutex, p.footprint = m, m.Footprint
	if w.faults {
		p.target = mutexCtx{m: m, dl: deadline}
	} else {
		p.target = mutexLock{m}
	}
	return p, nil
}

// ctxTargets returns Passage and deadline-free PassageCtx over the same
// object, the pair rme.lockctx is the difference of.
func (p *product) ctxTargets() (plain, withCtx target) {
	if p.keyed != nil {
		return mapPassage{p.keyed}, mapCtx{p.keyed}
	}
	return mutexPassage{p.mutex}, mutexCtx{m: p.mutex}
}

type mutexLock struct{ m *rme.Mutex }

func (t mutexLock) pass(w *worker) outcome {
	w.k = 0
	t.m.Lock(w.pid)
	w.csFn()
	t.m.Unlock(w.pid)
	return passOK
}

type mutexPassage struct{ m *rme.Mutex }

func (t mutexPassage) pass(w *worker) outcome {
	w.k = 0
	if t.m.Passage(w.pid, w.csFn) {
		return passOK
	}
	return passCrashed
}

// mutexCtx runs PassageCtx: with dl > 0 under a fresh deadline dl after
// the attempt starts, otherwise under the worker's context that never
// fires.
type mutexCtx struct {
	m  *rme.Mutex
	dl time.Duration
}

func (t mutexCtx) pass(w *worker) outcome {
	w.k = 0
	ctx := w.ctx
	if t.dl > 0 {
		w.deadline = w.start + int64(t.dl)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, w.base.Add(time.Duration(w.deadline)))
		defer cancel()
	}
	return ctxOutcome(t.m.PassageCtx(ctx, w.pid, w.csFn))
}

func ctxOutcome(ok bool, err error) outcome {
	switch {
	case ok:
		return passOK
	case err != nil:
		return passAborted
	}
	return passCrashed
}

type mapPassage struct{ ma *rme.Map }

func (t mapPassage) pass(w *worker) outcome {
	w.k = w.rank
	if t.ma.Passage(w.pid, keyNames[w.rank], w.csFn) {
		return passOK
	}
	return passCrashed
}

type mapCtx struct{ ma *rme.Map }

func (t mapCtx) pass(w *worker) outcome {
	w.k = w.rank
	return ctxOutcome(t.ma.PassageCtx(w.ctx, w.pid, keyNames[w.rank], w.csFn))
}

// lockCount is how many locks the lock-set targets (core-direct and the
// floors) hold: one for the Mutex workloads, the Map's slot count for
// map-zipf, whose ranks pick a lock modulo the count.
func lockCount(w workload) int {
	if w.keyed {
		return setSize
	}
	return 1
}

// syncSet is the sync.Mutex floor.
type syncSet []struct {
	mu sync.Mutex
	_  [56]byte
}

func (s syncSet) pass(w *worker) outcome {
	w.k = w.rank % len(s)
	mu := &s[w.k].mu
	mu.Lock()
	w.csFn()
	mu.Unlock()
	return passOK
}

// mcsSet is the plain MCS floor from internal/mcs on the native arena.
// With counting ports it records each passage's RMRs per process.
type mcsSet struct {
	locks []*mcs.Lock
	ports []memory.Port
	rmrs  [][]uint32 // per pid; nil unless counted
}

func newMCSSet(w workload, counted bool) *mcsSet {
	n := lockCount(w)
	sz := memory.NewNativeSizer(procs, true)
	for range n {
		mcs.New(sz, procs)
	}
	arena := memory.NewNativeArena(procs, sz.Words())
	s := &mcsSet{locks: make([]*mcs.Lock, n), ports: make([]memory.Port, w.workers)}
	for i := range s.locks {
		s.locks[i] = mcs.New(arena, procs)
	}
	var vt *memory.VersionTable
	if counted {
		vt = memory.NewVersionTable(arena.Capacity())
		s.rmrs = make([][]uint32, w.workers)
	}
	for pid := range s.ports {
		if counted {
			s.ports[pid] = memory.CountPort(arena.Port(pid, nil), vt, nil)
		} else {
			s.ports[pid] = arena.Port(pid, nil)
		}
	}
	return s
}

func (s *mcsSet) pass(w *worker) outcome {
	w.k = w.rank % len(s.locks)
	l, p := s.locks[w.k], s.ports[w.pid]
	if s.rmrs == nil {
		l.Enter(p)
		w.csFn()
		l.Exit(p)
		return passOK
	}
	cp := p.(*memory.CountingPort)
	r0 := cp.Counts().RMRs
	l.Enter(p)
	w.csFn()
	l.Exit(p)
	s.rmrs[w.pid] = append(s.rmrs[w.pid], uint32(cp.Counts().RMRs-r0))
	return passOK
}

// clockOnly is the empty target: its passage time is what the harness
// itself costs per passage (one clock read and the loop's bookkeeping).
type clockOnly struct{}

func (clockOnly) pass(*worker) outcome { return passOK }

// productLevels is the depth rme.New(8) resolves to: ⌈log₂ 8⌉ = 3.
var productLevels = core.DefaultLevels(procs)

// lockSpec is the recipe rme.New(8) resolves to when levels is
// productLevels: BA-Lock levels over the tournament base lock, each
// filter drawing queue nodes from a reclamation pool. The traced build
// wraps the two factories.
func lockSpec(levels int, wrapBase func(core.RecoverableLock) core.RecoverableLock,
	wrapSource func(core.NodeSource) core.NodeSource) core.LockSpec {
	return core.LockSpec{
		Levels: levels,
		Base: func(sp memory.Space, n int) core.RecoverableLock {
			return wrapBase(grlock.NewTournament(sp, n))
		},
		Source: func(sp memory.Space, n, level int) core.NodeSource {
			return wrapSource(reclaim.NewPool(sp, n))
		},
	}
}

// buildLocks builds count locks from spec into one native arena sized by
// replaying the construction on a sizer, exactly as rme.New does.
func buildLocks(spec core.LockSpec, count int) (*memory.NativeArena, []*core.BALock) {
	sz := memory.NewNativeSizer(procs, true)
	for range count {
		spec.Build(sz, procs)
	}
	arena := memory.NewNativeArena(procs, sz.Words())
	locks := make([]*core.BALock, count)
	for i := range locks {
		locks[i] = spec.Build(arena, procs)
	}
	return arena, locks
}

// pauseState is one process's Pause hook state: the deadline the hook
// delivers as an abort, and the number of Pause calls (spin iterations).
type pauseState struct {
	base     time.Time
	deadline int64 // ns since base; 0 = none
	pauses   uint32
	_        [36]byte
}

// coreSet drives BA-Locks directly through core.RecoverableLock, with no
// rme driver in between: the core-direct passage. Under faults it
// handles crashes and aborts as rme.PassageCtx does, with the deadline
// delivered by the Pause hook instead of a context watcher. With tracers
// it is the traced build of the layer pass.
type coreSet struct {
	arena  *memory.NativeArena
	locks  []*core.BALock
	ports  []memory.Port
	counts []*memory.CountingPort // traced only
	pause  []pauseState           // nil when no hook is needed
	tr     []*tracer              // traced only
	faults bool
}

// newCoreSet builds the core-direct lock set for w with the given BA-Lock
// depth. traced wraps the base and source factories in timing wrappers,
// counts every port's CC-model RMRs and stamps each phase transition;
// spanCap is then each worker's span buffer capacity.
func newCoreSet(w workload, plan *faultPlan, levels int, traced bool, spanCap int) *coreSet {
	c := &coreSet{faults: w.faults, ports: make([]memory.Port, w.workers)}
	wrapBase := func(l core.RecoverableLock) core.RecoverableLock { return l }
	wrapSource := func(s core.NodeSource) core.NodeSource { return s }
	if traced {
		c.tr = make([]*tracer, w.workers)
		for i := range c.tr {
			c.tr[i] = newTracer(spanCap)
		}
		wrapBase = func(l core.RecoverableLock) core.RecoverableLock { return &tracedBase{inner: l, tr: c.tr} }
		wrapSource = func(s core.NodeSource) core.NodeSource { return &tracedSource{inner: s, tr: c.tr} }
	}
	c.arena, c.locks = buildLocks(lockSpec(levels, wrapBase, wrapSource), lockCount(w))
	if traced {
		for _, l := range c.locks {
			l.SetPhaseHook(func(pid int, ph core.PhaseKind, level int) { c.tr[pid].phase(ph, level) })
		}
	}
	var fail memory.FailFunc
	if plan != nil {
		fail = func(pid int, op memory.OpInfo) bool { return plan.labeled(pid, op.Label) }
	}
	if traced || w.faults {
		c.pause = make([]pauseState, w.workers)
	}
	var vt *memory.VersionTable
	if traced {
		vt = memory.NewVersionTable(c.arena.Capacity())
		c.counts = make([]*memory.CountingPort, w.workers)
	}
	for pid := range c.ports {
		np := c.arena.Port(pid, fail)
		if c.pause != nil {
			st := &c.pause[pid]
			np.SetAbortHook(func(int) bool {
				st.pauses++
				return st.deadline != 0 && int64(time.Since(st.base)) > st.deadline
			})
		}
		c.ports[pid] = np
		if traced {
			c.counts[pid] = memory.CountPort(np, vt, nil)
			c.ports[pid] = c.counts[pid]
			c.tr[pid].port, c.tr[pid].pause = c.counts[pid], &c.pause[pid]
		}
	}
	return c
}

func (c *coreSet) tracer(pid int) *tracer {
	if c.tr == nil {
		return nil
	}
	return c.tr[pid]
}

func (c *coreSet) pass(w *worker) outcome {
	w.k = w.rank % len(c.locks)
	l, p, t := c.locks[w.k], c.ports[w.pid], c.tracer(w.pid)
	if c.faults {
		return c.attempt(w, l, p, t)
	}
	t.begin(false, w.measuring)
	l.Recover(p)
	l.Enter(p)
	t.next(segCS, 0)
	w.csFn()
	t.next(segExit, 0)
	l.Exit(p)
	t.end(passOK)
	return passOK
}

// attempt is one deadline-bound attempt that mirrors rme.PassageCtx: the
// process's own injected crash ends it (its CC cache is lost with it), a
// deadline abort raised by Pause backs out through core.Aborter.
func (c *coreSet) attempt(w *worker, l *core.BALock, p memory.Port, t *tracer) (out outcome) {
	st := &c.pause[w.pid]
	w.deadline = w.start + int64(deadline)
	st.base, st.deadline = w.base, w.deadline
	t.begin(w.recovering, w.measuring)
	defer func() {
		st.deadline = 0
		if e := recover(); e != nil {
			out = c.unwind(e, w.pid, l, p, t)
		}
	}()
	l.Recover(p)
	l.Enter(p)
	st.deadline = 0
	t.next(segCS, 0)
	w.csFn()
	t.next(segExit, 0)
	l.Exit(p)
	t.end(passOK)
	return passOK
}

// unwind classifies a panic out of an attempt: this process's crash or
// abort; anything else is a bug and propagates.
func (c *coreSet) unwind(e any, pid int, l *core.BALock, p memory.Port, t *tracer) outcome {
	switch x := e.(type) {
	case memory.ErrCrash:
		if x.PID == pid {
			return c.crashed(pid, t)
		}
	case memory.ErrAbort:
		if x.PID == pid {
			return c.backOut(pid, l, p, t)
		}
	}
	panic(e)
}

// backOut runs the crash-safe back-out; a crash during it ends the
// attempt as crashed, exactly as in rme.PassageCtx.
func (c *coreSet) backOut(pid int, l *core.BALock, p memory.Port, t *tracer) (out outcome) {
	defer func() {
		if e := recover(); e != nil {
			if x, ok := e.(memory.ErrCrash); ok && x.PID == pid {
				out = c.crashed(pid, t)
				return
			}
			panic(e)
		}
	}()
	t.next(segAbort, 0)
	l.Abort(p)
	t.end(passAborted)
	return passAborted
}

// crashed ends an attempt this process's crash unwound; the CC cache is
// private state, so the crash loses it.
func (c *coreSet) crashed(pid int, t *tracer) outcome {
	t.end(passCrashed)
	if c.counts != nil {
		c.counts[pid].InvalidateCache()
	}
	return passCrashed
}

// footprint is the arena's size in words, comparable to Mutex.Footprint.
func (c *coreSet) footprint() int { return c.arena.Size() }

// tracedBase times the base lock's segments. It forwards core.Aborter:
// the innermost SALock backs out of its core only if the core is one.
type tracedBase struct {
	inner core.RecoverableLock
	tr    []*tracer
}

func (b *tracedBase) Recover(p memory.Port) { b.inner.Recover(p) }

func (b *tracedBase) Enter(p memory.Port) {
	t := b.tr[p.PID()]
	t.push(segGrEnter)
	b.inner.Enter(p)
	t.pop()
}

func (b *tracedBase) Exit(p memory.Port) {
	t := b.tr[p.PID()]
	t.push(segGrExit)
	b.inner.Exit(p)
	t.pop()
}

func (b *tracedBase) Abort(p memory.Port) {
	a, ok := b.inner.(core.Aborter)
	if !ok {
		panic(fmt.Sprintf("rmeperf: base lock %T is not abortable", b.inner))
	}
	t := b.tr[p.PID()]
	t.push(segGrAbort)
	a.Abort(p)
	t.pop()
}

// tracedSource times the reclamation pool's calls.
type tracedSource struct {
	inner core.NodeSource
	tr    []*tracer
}

func (s *tracedSource) NewNode(p memory.Port) memory.Addr {
	t := s.tr[p.PID()]
	t.push(segNewNode)
	a := s.inner.NewNode(p)
	t.pop()
	return a
}

func (s *tracedSource) Retire(p memory.Port) {
	t := s.tr[p.PID()]
	t.push(segRetire)
	s.inner.Retire(p)
	t.pop()
}
