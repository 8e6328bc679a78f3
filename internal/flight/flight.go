// Package flight is the native path's flight recorder: an always-available,
// near-zero-overhead-when-off event capture layer that turns "what was
// process 3 doing when the soak run tripped" from archaeology into a file.
//
// Each process owns a cache-line-padded, fixed-size ring of compact binary
// events — passage begin/end, the SALock phase trajectory
// filter → splitter → {fast | core} → arbitrator with its BA-Lock level,
// CS enter/exit, crash/recover, and lock handoffs — stamped with a
// strictly monotone per-process nanosecond timestamp. Recording is enabled
// with rme.WithTracing; when the recorder is absent the lock pays one nil
// check per emit site, and when present but disabled a single atomic flag
// load.
//
// Why recording never adds a remote memory reference in the CC cost model:
// the rings live in ordinary Go memory outside the word arena and are
// written without issuing a single memory.Port instruction, so the exact
// RMR accounting of internal/metrics (and the paper's complexity claims it
// checks) cannot observe the recorder at all. Emits are plain Go calls,
// not shared-memory steps, so they also introduce no new crash points for
// failure plans.
//
// Tear freedom: each ring slot is a two-word seqlock. The owner publishes
// an event by zeroing the packed word, storing the timestamp word, then
// storing the packed word (sequence, kind, level, valid bit) — all
// sequentially consistent atomics. A snapshotting goroutine reads packed,
// timestamp, packed-again and keeps the event only if both packed reads
// agree, are valid, and carry the sequence number the ring index implies.
// Any slot being overwritten mid-read fails one of those checks and is
// dropped (counted in Recording.Dropped), so a snapshot never contains a
// torn event, and per-process streams are strictly ordered by construction.
package flight

import (
	"fmt"
	"sync/atomic"
	"time"

	"rme/internal/metrics"
)

// Kind identifies a flight-recorder event.
type Kind uint8

// Event kinds. The phase kinds carry the 1-based BA-Lock level of the
// SALock instance the process is navigating.
const (
	// KindPassageBegin marks the start of a passage (the Recover segment).
	KindPassageBegin Kind = iota + 1
	// KindRecover marks a passage that begins with a prior crash pending:
	// its Recover segment has real cleanup to consider.
	KindRecover
	// KindPhaseFilter marks entry into a level's weakly recoverable
	// filter lock.
	KindPhaseFilter
	// KindPhaseSplitter marks a splitter acquisition attempt.
	KindPhaseSplitter
	// KindPhaseFast marks winning the splitter: the passage takes the
	// fast path to the arbitrator.
	KindPhaseFast
	// KindPhaseCore marks committing to the slow path: the passage
	// descends into the level's core lock (the next SALock level, or the
	// base lock at the innermost level).
	KindPhaseCore
	// KindPhaseArbitrator marks entry into a level's dual-port arbitrator.
	KindPhaseArbitrator
	// KindCSEnter marks completion of Enter: the process is in its CS.
	KindCSEnter
	// KindCSExit marks the process leaving its CS for the Exit segment.
	KindCSExit
	// KindPassageEnd marks completion of Exit: a failure-free passage.
	KindPassageEnd
	// KindCrash marks a failure of the process.
	KindCrash
	// KindHandoff marks a lock handoff observed via a ":handoff"
	// instruction label: the release-side write that passes ownership
	// directly to a waiting successor.
	KindHandoff
	// KindAbort marks an aborted passage: the waiter was cancelled and
	// completed its crash-safe back-out (the event is emitted when the
	// back-out finishes, closing the passage).
	KindAbort

	kindMax = KindAbort
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPassageBegin:
		return "passage-begin"
	case KindRecover:
		return "recover"
	case KindPhaseFilter:
		return "filter"
	case KindPhaseSplitter:
		return "splitter"
	case KindPhaseFast:
		return "fast"
	case KindPhaseCore:
		return "core"
	case KindPhaseArbitrator:
		return "arbitrator"
	case KindCSEnter:
		return "cs-enter"
	case KindCSExit:
		return "cs-exit"
	case KindPassageEnd:
		return "passage-end"
	case KindCrash:
		return "crash"
	case KindHandoff:
		return "handoff"
	case KindAbort:
		return "abort"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsPhase reports whether the kind is one of the SALock pipeline phases
// (filter, splitter, fast, core, arbitrator).
func (k Kind) IsPhase() bool {
	return k >= KindPhaseFilter && k <= KindPhaseArbitrator
}

// KindFromString inverts Kind.String for every valid kind.
func KindFromString(s string) (Kind, bool) {
	for k := Kind(1); k <= kindMax; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Seq is the per-process event index, counted from zero over the
	// process's lifetime (not just the ring's current window).
	Seq uint64 `json:"seq"`
	// TS is the event timestamp: nanoseconds since the recorder was
	// created on the native backend (strictly monotone per process), or
	// logical scheduler steps for recordings converted from a simulation.
	TS int64 `json:"ts"`
	// Kind is the event kind.
	Kind Kind `json:"kind"`
	// Level is the 1-based BA-Lock level for phase events, 0 otherwise.
	Level int `json:"level,omitempty"`
}

// slot is one seqlock-protected ring entry: ts holds the timestamp,
// packed holds valid|kind|level|seq (see pack).
type slot struct {
	ts     atomic.Uint64
	packed atomic.Uint64
}

const (
	packValid = uint64(1) << 63
	// Field layout of packed: kind in bits 48..55, level in bits 32..47,
	// the low 32 bits of the per-process sequence number in bits 0..31.
	packKindShift  = 48
	packLevelShift = 32
)

func pack(seq uint64, k Kind, level int) uint64 {
	return packValid |
		uint64(k)<<packKindShift |
		uint64(uint16(level))<<packLevelShift |
		seq&0xffffffff
}

func unpack(w uint64) (seq32 uint64, k Kind, level int) {
	return w & 0xffffffff, Kind(w >> packKindShift & 0xff), int(uint16(w >> packLevelShift))
}

// ring is one process's event buffer plus its owner-private span state.
// Only the owning goroutine writes; snapshotting goroutines read the
// atomics. The trailing pad keeps neighbouring rings' hot words (head,
// span state) off each other's cache lines, mirroring the arena's
// home-stripe discipline.
type ring struct {
	head  atomic.Uint64 // events ever emitted by this process
	slots []slot

	// Owner-private state (no concurrent readers).
	lastTS     int64
	open       bool  // a passage is in flight
	crashed    bool  // a crash happened since the last completed passage
	curPhase   Kind  // current profile phase (0 = none)
	phaseStart int64 // TS at which curPhase began
	curLevel   int   // level of curPhase
	deepest    int   // deepest level this passage has reached

	prof *procProfile

	_ [8]uint64
}

// Recorder captures flight events for the n processes of one lock.
// Construct it with NewRecorder; rme.Mutex drives it when the WithTracing
// option is set. All emit methods must be called from the goroutine
// currently impersonating the process; Snapshot and Profile may be called
// from any goroutine at any time.
type Recorder struct {
	n       int
	size    int // ring capacity (power of two)
	mask    uint64
	enabled atomic.Bool
	epoch   time.Time
	rings   []ring
}

// DefaultRingSize is the per-process ring capacity used when the caller
// does not choose one.
const DefaultRingSize = 1024

// MaxRingSize is the largest ring capacity NewRecorder accepts: the
// capacity rounds up to a power of two, and 1<<30 is the largest one an
// int holds on every Go platform.
const MaxRingSize = 1 << 30

// NewRecorder returns an enabled recorder for n processes with the given
// per-process ring capacity (rounded up to a power of two; values < 2
// select DefaultRingSize). It panics above MaxRingSize.
func NewRecorder(n, ringSize int) *Recorder {
	if n < 1 {
		panic(fmt.Sprintf("flight: NewRecorder n = %d", n))
	}
	if ringSize > MaxRingSize {
		panic(fmt.Sprintf("flight: NewRecorder ring size %d > %d", ringSize, MaxRingSize))
	}
	if ringSize < 2 {
		ringSize = DefaultRingSize
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	r := &Recorder{
		n:     n,
		size:  size,
		mask:  uint64(size - 1),
		epoch: time.Now(),
		rings: make([]ring, n),
	}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
		r.rings[i].prof = newProcProfile()
	}
	r.enabled.Store(true)
	return r
}

// N returns the process count.
func (r *Recorder) N() int { return r.n }

// SetEnabled starts or stops recording. Disabling mid-passage is safe:
// events are simply not emitted while disabled, and the next passage
// boundary resets the phase-span state. The recorder-off cost at every
// emit site is this flag's atomic load.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether recording is active.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

func (r *Recorder) ring(pid int) *ring {
	if pid < 0 || pid >= r.n {
		panic(fmt.Sprintf("flight: pid %d out of range [0,%d)", pid, r.n))
	}
	return &r.rings[pid]
}

// now returns the recorder-relative timestamp for pid, strictly greater
// than any timestamp previously returned for the same process (the
// monotonic clock may be coarser than one event).
func (r *Recorder) now(rg *ring) int64 {
	ts := time.Since(r.epoch).Nanoseconds()
	if ts <= rg.lastTS {
		ts = rg.lastTS + 1
	}
	rg.lastTS = ts
	return ts
}

// emit publishes one event into pid's ring. See the package comment for
// the seqlock publication protocol.
func (rg *ring) emit(mask uint64, ts int64, k Kind, level int) {
	h := rg.head.Load() // the owner is the only writer of head
	s := &rg.slots[h&mask]
	s.packed.Store(0)
	s.ts.Store(uint64(ts))
	s.packed.Store(pack(h, k, level))
	rg.head.Store(h + 1)
}

// closePhase records the latency of the current profile span, if any.
func (rg *ring) closePhase(ts int64) {
	if rg.curPhase != 0 {
		rg.prof.record(rg.curPhase, rg.curLevel, ts-rg.phaseStart)
		rg.curPhase = 0
	}
}

// startPhase opens a profile span of kind k at level lvl.
func (rg *ring) startPhase(ts int64, k Kind, lvl int) {
	rg.closePhase(ts)
	rg.curPhase, rg.curLevel, rg.phaseStart = k, lvl, ts
	if lvl > rg.deepest {
		rg.deepest = lvl
	}
}

// PassageBegin marks the start of a passage (the Recover segment). If a
// prior crash is pending a KindRecover event follows the begin event.
func (r *Recorder) PassageBegin(pid int) {
	if !r.enabled.Load() {
		return
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.curPhase = 0 // a dangling span (crash, disable window) never closes
	rg.open = true
	rg.deepest = 1
	rg.emit(r.mask, ts, KindPassageBegin, 0)
	if rg.crashed {
		rg.crashed = false
		rg.emit(r.mask, r.now(rg), KindRecover, 0)
	}
}

// Phase marks a SALock pipeline transition at the 1-based level lvl.
// k must be one of the phase kinds.
func (r *Recorder) Phase(pid int, k Kind, lvl int) {
	if !r.enabled.Load() {
		return
	}
	if !k.IsPhase() {
		panic(fmt.Sprintf("flight: Phase(%v) is not a phase kind", k))
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.startPhase(ts, k, lvl)
	rg.emit(r.mask, ts, k, lvl)
}

// CSEnter marks completion of Enter. The critical-section span is
// attributed to the deepest level the passage reached.
func (r *Recorder) CSEnter(pid int) {
	if !r.enabled.Load() {
		return
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.startPhase(ts, phaseCS, rg.deepest)
	rg.emit(r.mask, ts, KindCSEnter, 0)
}

// CSExit marks the start of the Exit segment.
func (r *Recorder) CSExit(pid int) {
	if !r.enabled.Load() {
		return
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.startPhase(ts, phaseExit, rg.deepest)
	rg.emit(r.mask, ts, KindCSExit, 0)
}

// PassageEnd marks completion of Exit: a failure-free passage.
func (r *Recorder) PassageEnd(pid int) {
	if !r.enabled.Load() {
		return
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.closePhase(ts)
	rg.open = false
	rg.emit(r.mask, ts, KindPassageEnd, 0)
}

// Abort records the completion of process pid's back-out: the passage is
// closed as aborted. The current phase span is abandoned — an aborted
// span is a fragment, not a latency sample — but, unlike Crash, no
// recover is pending: the back-out left shared state consistent.
func (r *Recorder) Abort(pid int) {
	if !r.enabled.Load() {
		return
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.curPhase = 0
	rg.open = false
	rg.emit(r.mask, ts, KindAbort, 0)
}

// Crash records a failure of process pid. The current phase span is
// abandoned (a crashed span is a fragment, not a latency sample).
func (r *Recorder) Crash(pid int) {
	if !r.enabled.Load() {
		return
	}
	rg := r.ring(pid)
	ts := r.now(rg)
	rg.curPhase = 0
	rg.open = false
	rg.crashed = true
	rg.emit(r.mask, ts, KindCrash, 0)
}

// ObserveLabel inspects an instruction label issued by pid and records
// the events derivable from the label taxonomy (currently ":handoff").
// It is installed as the native port's label hook.
func (r *Recorder) ObserveLabel(pid int, label string) {
	if !r.enabled.Load() {
		return
	}
	if metrics.IsHandoff(label) {
		rg := r.ring(pid)
		rg.emit(r.mask, r.now(rg), KindHandoff, 0)
	}
}

// Snapshot copies every process's ring into a Recording. It may be called
// from any goroutine while recording is in flight; events overwritten
// mid-read are dropped (never torn) and counted in Dropped alongside
// events that aged out of the ring before the snapshot.
func (r *Recorder) Snapshot() *Recording {
	rec := &Recording{
		Schema:  RecordingSchema,
		N:       r.n,
		Source:  SourceNative,
		Clock:   ClockNanos,
		Dropped: make([]uint64, r.n),
		Procs:   make([][]Event, r.n),
	}
	for pid := range r.rings {
		rg := &r.rings[pid]
		h := rg.head.Load()
		lo := uint64(0)
		if h > uint64(r.size) {
			lo = h - uint64(r.size)
		}
		events := make([]Event, 0, h-lo)
		for i := lo; i < h; i++ {
			s := &rg.slots[i&r.mask]
			p1 := s.packed.Load()
			ts := s.ts.Load()
			p2 := s.packed.Load()
			if p1 != p2 || p1&packValid == 0 {
				continue // being overwritten mid-read
			}
			seq32, k, lvl := unpack(p1)
			if seq32 != i&0xffffffff {
				continue // the owner lapped this slot during the scan
			}
			events = append(events, Event{Seq: i, TS: int64(ts), Kind: k, Level: lvl})
		}
		rec.Procs[pid] = events
		rec.Dropped[pid] = h - uint64(len(events))
	}
	return rec
}
