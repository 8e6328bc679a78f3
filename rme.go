// Package rme provides recoverable mutual exclusion for Go programs,
// implementing Dhoked & Mittal, "An Adaptive Approach to Recoverable
// Mutual Exclusion" (PODC 2020).
//
// A Mutex is an n-process lock whose entire state lives in a persistent
// word arena (the stand-in for NVRAM): a process — a worker goroutine
// holding a process identifier — can fail at any instruction boundary
// while acquiring, holding or releasing the lock, lose all of its private
// state, and later recover by simply calling Lock again. Mutual exclusion,
// starvation freedom, and bounded critical-section re-entry hold across
// such failures.
//
// The lock is the paper's BA-Lock: a stack of semi-adaptive filter levels
// over a strongly recoverable base lock. Acquiring it costs O(1) remote
// memory references when no failures have occurred recently, O(√F) when F
// recent failures have, and never more than the base lock's O(log n) (or
// O(log n / log log n) with the arbitration-tree base).
//
// The companion packages under internal/ run the same algorithms on an
// RMR-exact simulator; cmd/rmebench regenerates the paper's tables and
// figures from them.
package rme

import (
	"context"
	"fmt"
	"time"

	"rme/internal/arbtree"
	"rme/internal/core"
	"rme/internal/flight"
	"rme/internal/grlock"
	"rme/internal/memory"
	"rme/internal/metrics"
	"rme/internal/reclaim"
)

// Base selects the non-adaptive strongly recoverable lock placed at the
// bottom of the recursion.
type Base int

// Base locks.
const (
	// BaseTournament is the binary tournament of recoverable 2-process
	// locks: T(n) = O(log n) under both CC and DSM.
	BaseTournament Base = iota + 1
	// BaseArbTree is the Δ-ary arbitration tree:
	// T(n) = O(log n / log log n) under CC.
	BaseArbTree
)

type config struct {
	base        Base
	levels      int
	reclamation bool
	slack       int
	capacity    int
	metrics     bool
	tracing     bool
	tracingOpts TracingOptions
	fail        FailFunc
	labelFail   LabeledFailFunc
	shards      int // Map only
	segSlots    int // Map only
}

// lockSpec resolves the configured base, levels and node sourcing into a
// reusable build recipe (filling in the paper's default depth for the
// base), shared by New and NewMap, which each build one lock from it.
func (cfg *config) lockSpec(n int) (core.LockSpec, error) {
	levels := cfg.levels
	if levels == 0 {
		switch cfg.base {
		case BaseArbTree:
			levels = core.SubLogLevels(n)
		default:
			levels = core.DefaultLevels(n)
		}
	}
	if levels < 1 {
		return core.LockSpec{}, fmt.Errorf("rme: invalid level count %d", levels)
	}
	spec := core.LockSpec{Levels: levels}
	switch cfg.base {
	case BaseTournament:
		spec.Base = func(sp memory.Space, n int) core.RecoverableLock {
			return grlock.NewTournament(sp, n)
		}
	case BaseArbTree:
		spec.Base = func(sp memory.Space, n int) core.RecoverableLock {
			return arbtree.New(sp, n, 0)
		}
	default:
		return core.LockSpec{}, fmt.Errorf("rme: unknown base lock %d", cfg.base)
	}
	if cfg.reclamation {
		spec.Source = func(sp memory.Space, n, level int) core.NodeSource {
			return reclaim.NewPool(sp, n)
		}
	}
	return spec, nil
}

// Option configures New.
type Option func(*config)

// WithBase selects the base lock (default BaseTournament).
func WithBase(b Base) Option { return func(c *config) { c.base = b } }

// WithLevels overrides the recursion depth m (default: the paper's
// m = T(n) choice for the selected base).
func WithLevels(m int) Option { return func(c *config) { c.levels = m } }

// WithoutReclamation disables the Section 7.2 node pools. Queue nodes are
// then allocated fresh from the arena, whose extra capacity must be sized
// with WithSlack; memory use grows with the number of passages.
func WithoutReclamation() Option { return func(c *config) { c.reclamation = false } }

// WithSlack reserves extra arena words beyond the lock's measured
// footprint (needed only with WithoutReclamation).
func WithSlack(words int) Option { return func(c *config) { c.slack = words } }

// WithCapacity sets a floor on the arena's physical capacity in words.
// The arena is always at least large enough for the lock's measured
// footprint plus any slack; use this to pre-size for workloads known to
// allocate more (only meaningful with WithoutReclamation).
func WithCapacity(words int) Option { return func(c *config) { c.capacity = words } }

// WithShards sets a Map's shard count (default 8, rounded up to a power
// of two; NewMap rejects k above 1<<30). Keys hash over shards; each
// shard serializes only its own key-table bookkeeping, never passages.
// Map only — New rejects it.
func WithShards(k int) Option { return func(c *config) { c.shards = k } }

// maxShards is the largest shard count NewMap accepts: the count rounds
// up to a power of two, and 1<<30 is the largest one an int holds on
// every Go platform.
const maxShards = 1 << 30

// WithSegmentSlots sets how many per-key lock regions one of a Map
// shard's arena segments holds (default 64). Smaller segments bound the
// footprint growth granularity; larger ones amortize arena bookkeeping.
// Map only — New rejects it.
func WithSegmentSlots(k int) Option { return func(c *config) { c.segSlots = k } }

// FailFunc is a failure-injection hook for tests and demonstrations: it is
// consulted before every shared-memory instruction of the lock, with the
// process identifier; returning true makes that process crash there (the
// lock call panics with a crash sentinel that Passage converts into a
// normal return).
type FailFunc func(pid int) bool

// WithFailures installs a failure-injection hook.
func WithFailures(f FailFunc) Option { return func(c *config) { c.fail = f } }

// LabeledFailFunc is a failure-injection hook that also sees the label of
// the instruction about to execute ("" for unlabeled instructions).
// Labels mark the algorithm's interesting steps — "F<k>:fas" is level k's
// sensitive filter fetch-and-store, "F<k>:slow" commits its slow path —
// so a labeled hook can place crashes at precise algorithmic positions
// (e.g. immediately after a sensitive FAS, the paper's unsafe failure).
type LabeledFailFunc func(pid int, label string) bool

// WithLabeledFailures installs a label-aware failure-injection hook. It
// composes with WithFailures: either hook returning true crashes the
// process.
func WithLabeledFailures(f LabeledFailFunc) Option {
	return func(c *config) { c.labelFail = f }
}

// WithMetrics enables the passage metrics layer: every port is wrapped
// with exact CC-model RMR accounting (see internal/metrics) and
// MetricsSnapshot reports per-passage RMR and level distributions. When
// the option is absent the lock keeps its unwrapped ports and the only
// residual cost is one nil check per Lock/Unlock.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// TracingOptions configures the flight recorder (see WithTracing).
type TracingOptions struct {
	// RingSize is the per-process ring capacity in events, rounded up to
	// a power of two; 0 selects flight.DefaultRingSize, and New and
	// NewMap reject values above flight.MaxRingSize (1<<30). Older events
	// are overwritten once the ring is full — the recorder is a flight
	// recorder, not an unbounded log.
	RingSize int
	// Disabled constructs the recorder in the disabled state; enable it
	// later with SetTracing(true). The instrumentation is wired either
	// way, so toggling costs nothing but the per-emit flag check.
	Disabled bool
}

// WithTracing enables the flight recorder: each process gets a
// cache-line-padded ring buffer capturing its passage trajectory
// (passage begin/end, filter→splitter→{fast|core}→arbitrator phase
// transitions with their BA-Lock level, CS enter/exit, crash/recover,
// handoffs) with strictly monotone nanosecond timestamps, plus
// per-phase latency histograms. Inspect with FlightRecording (dump for
// cmd/rmetrace) and FlightProfile. When the option is absent every
// instrumentation site costs one nil check; when present but disabled
// via SetTracing(false), one atomic flag load, and each labeled
// instruction (two in a failure-free passage) also makes one call to
// the label observer. Recording itself never issues shared-memory
// instructions, so it adds no RMRs in the CC cost model and no crash
// points.
func WithTracing(opts TracingOptions) Option {
	return func(c *config) { c.tracing = true; c.tracingOpts = opts }
}

// Mutex is a recoverable mutual exclusion lock for n processes.
//
// Process identifiers are 0..n-1. At any moment at most one goroutine may
// act as a given process; beyond that, all methods are safe for concurrent
// use. A process that "crashes" (a Passage that returns false, or an
// application-level failure) recovers by calling Lock — or Passage —
// again with the same identifier.
type Mutex struct {
	eng   engine
	n     int
	cfg   config
	arena *memory.NativeArena
	rec   *metrics.Recorder // nil unless WithMetrics
}

// New creates a recoverable mutex for n processes. It returns an error
// for an invalid option, such as a TracingOptions.RingSize above 1<<30.
func New(n int, opts ...Option) (*Mutex, error) {
	if n < 1 {
		return nil, fmt.Errorf("rme: New(%d): need at least one process", n)
	}
	cfg := config{base: BaseTournament, reclamation: true}
	for _, o := range opts {
		o(&cfg)
	}
	spec, err := cfg.lockSpec(n)
	if err != nil {
		return nil, err
	}
	cfg.levels = spec.Levels

	if cfg.capacity < 0 {
		return nil, fmt.Errorf("rme: negative capacity %d", cfg.capacity)
	}
	if cfg.slack < 0 {
		// A negative slack would shrink the arena below the measured
		// footprint and corrupt the deterministic layout.
		return nil, fmt.Errorf("rme: negative slack %d", cfg.slack)
	}
	if cfg.shards != 0 || cfg.segSlots != 0 {
		return nil, fmt.Errorf("rme: WithShards/WithSegmentSlots apply to NewMap, not New")
	}
	if cfg.tracingOpts.RingSize > flight.MaxRingSize {
		return nil, fmt.Errorf("rme: ring size %d exceeds %d", cfg.tracingOpts.RingSize, flight.MaxRingSize)
	}

	// Measure the exact physical footprint by replaying the allocation
	// sequence against a sizer with the same layout policy, then build
	// for real. Construction is deterministic, so the real arena lands
	// every allocation exactly where the sizer predicted.
	sizer := memory.NewNativeSizer(n, true)
	spec.Build(sizer, n)
	capacity := sizer.Words() + cfg.slack
	if !cfg.reclamation {
		if cfg.slack == 0 {
			capacity += 1 << 16 // room for dynamically allocated queue nodes
		} else {
			// Padded arenas round dynamic allocations up to whole lines
			// per home; leave headroom so the requested slack is usable.
			capacity += (n + 1) * memory.LineWords
		}
	}
	if cfg.capacity > capacity {
		capacity = cfg.capacity
	}

	arena := memory.NewNativeArena(n, capacity)
	bal := spec.Build(arena, n)
	m := &Mutex{eng: newEngine(n, &cfg), n: n, cfg: cfg, arena: arena}
	if cfg.metrics {
		// cfg.levels SALock filters plus the base lock itself.
		m.rec = metrics.NewRecorder(n, cfg.levels+1, arena.Capacity())
	}
	m.eng.watch(bal)
	for i := range m.eng.procs {
		s := &m.eng.procs[i]
		s.lock, s.port, s.rec = bal, m.eng.port(arena, i, m.rec), m.rec
	}
	return m, nil
}

// N returns the number of processes.
func (m *Mutex) N() int { return m.n }

// Footprint returns the number of shared-memory words the lock occupies.
func (m *Mutex) Footprint() int { return m.arena.Size() }

// MetricsSnapshot returns the passage metrics accumulated so far. It may
// be called from any goroutine while passages are in flight (in-flight
// passages are not included yet). The second result is false when the
// mutex was built without WithMetrics.
func (m *Mutex) MetricsSnapshot() (metrics.Snapshot, bool) {
	if m.rec == nil {
		return metrics.Snapshot{}, false
	}
	return m.rec.Snapshot(), true
}

// SetTracing starts or stops flight recording at runtime. It is a no-op
// on a mutex built without WithTracing (tracing cannot be enabled after
// construction: the instrumentation is wired at New time).
func (m *Mutex) SetTracing(on bool) { m.eng.setTracing(on) }

// TracingEnabled reports whether flight recording is currently active.
func (m *Mutex) TracingEnabled() bool { return m.eng.tracingEnabled() }

// FlightRecording snapshots the flight recorder's ring buffers into a
// dumpable Recording (see cmd/rmetrace for rendering it). It may be
// called from any goroutine while passages are in flight; concurrently
// overwritten events are dropped, never torn. The second result is false
// when the mutex was built without WithTracing.
func (m *Mutex) FlightRecording() (*flight.Recording, bool) { return m.eng.flightRecording() }

// FlightProfile returns the phase-latency profile accumulated so far
// (wall-clock histograms per pipeline phase and BA-Lock level). The
// second result is false when the mutex was built without WithTracing.
func (m *Mutex) FlightProfile() (flight.Profile, bool) { return m.eng.flightProfile() }

// Lock acquires the mutex as process pid, running the Recover and Enter
// segments of the paper's execution model. It is the correct call both
// for first acquisition and for recovery after a failure: all recovery
// state lives in the arena.
//
// With failure injection enabled, Lock panics with an ErrCrash sentinel
// at injected failures; use Passage for loop-free handling.
func (m *Mutex) Lock(pid int) { m.eng.lock(context.Background(), pid, "") }

// Unlock releases the mutex as process pid (the Exit segment).
func (m *Mutex) Unlock(pid int) { m.eng.unlock(pid) }

// Passage runs one passage: Recover, Enter, the critical section cs, and
// Exit. It reports false if an injected failure interrupted the passage
// (including a Crash called inside cs), in which case the caller should
// retry — exactly the paper's model of a process restarting after a
// crash. The critical section should be idempotent if failures inside it
// are possible (the BCSR property guarantees re-entry before any other
// process gets in).
//
// Only this process's own crash sentinel is converted into a false return:
// an ErrCrash carrying a different PID (a Crash(otherPid) raised inside cs,
// or a nested mutex's injected failure unwinding through this one) is not
// this passage's failure and propagates as a panic.
func (m *Mutex) Passage(pid int, cs func()) (ok bool) {
	ok, _ = m.eng.passage(context.Background(), pid, "", cs)
	return ok
}

// LockCtx acquires the mutex as process pid, giving up when ctx is
// cancelled or its deadline passes. It returns nil on acquisition and
// ctx.Err() on cancellation, after backing the process out of the lock
// crash-safely: the abandoned queue state is persisted first, so even a
// crash in the middle of the back-out is repaired by the next Lock. A
// cancelled LockCtx leaves the process holding nothing — unlike a crash,
// no recovery is pending and other processes observe at most one
// wait-free "abandoned" handoff.
//
// Cancellation is polled from the spin-loop pause hook, which receives
// from ctx.Done() without blocking on the acquiring goroutine itself, so
// the failure-free path executes no extra shared-memory instructions (its RMR cost is identical to Lock); an
// attempt that acquires without ever spinning notices cancellation at
// the post-acquisition check and releases before returning ctx.Err().
// Every cancelled attempt — pre-cancelled, mid-spin, or at the
// post-acquisition check — is recorded as exactly one aborted attempt,
// never as a passage.
//
// With failure injection enabled, LockCtx panics with the ErrCrash
// sentinel exactly like Lock — including when the crash lands during the
// back-out; use PassageCtx for loop-free handling of both.
func (m *Mutex) LockCtx(ctx context.Context, pid int) error { return m.eng.lock(ctx, pid, "") }

// TryLockFor acquires the mutex as process pid, giving up after d. It
// reports whether the lock was acquired; on false the process has backed
// out crash-safely and holds nothing. A non-positive d never touches the
// lock but still counts one aborted attempt, keeping abort-rate
// denominators consistent with deadlines that expire while queued.
func (m *Mutex) TryLockFor(pid int, d time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return m.LockCtx(ctx, pid) == nil
}

// PassageCtx runs one abortable passage: LockCtx, the critical section
// cs, and Unlock. Like Passage it reports ok=false (with a nil error)
// when an injected failure interrupted the passage — including a crash
// during the cancellation back-out — in which case the caller should
// retry. A cancellation is reported as (false, ctx.Err()); the process
// then holds nothing and no recovery is pending.
func (m *Mutex) PassageCtx(ctx context.Context, pid int, cs func()) (ok bool, err error) {
	return m.eng.passage(ctx, pid, "", cs)
}

// Crash simulates a failure of process pid at the current point — for use
// inside a Passage critical section to model a crash while holding the
// lock. It panics with the crash sentinel that Passage recovers.
func Crash(pid int) {
	panic(memory.ErrCrash{PID: pid})
}
