package memory

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// LineWords is the number of 8-byte words per 64-byte cache line, the unit
// of false sharing on the hardware the native backend runs on.
const LineWords = 8

// NativeArena is the sync/atomic backed shared memory. It runs the same
// lock algorithms as Arena but under real goroutine concurrency, standing
// in for NVRAM: its contents survive simulated process crashes (a crashed
// worker abandons its private state and later re-runs Recover against the
// untouched arena).
//
// Unlike the simulated Arena, which only *accounts* remote memory
// references, the native arena actually pays them, so its layout is
// cache-line aware by default:
//
//   - Allocations with a home process land in that process's region
//     (stripe), and stripes are composed of whole cache lines, so two
//     processes' locally-spun words never share a 64-byte line. This is
//     the DSM discipline made physical: a process's spin words are on
//     lines nobody else's spin words live on.
//   - Allocations with HomeNone (tail pointers and other truly shared
//     words) each get their own cache line(s), so unrelated shared words
//     never false-share either.
//   - Each stripe bump-allocates privately and grabs whole lines from a
//     single line counter, so Alloc is not one contended word counter.
//   - Word 0 is the reserved null word; its entire line is left unused.
//
// RMR accounting is not available on this backend (real cache behaviour is
// up to the hardware) — use Arena for RMR experiments.
type NativeArena struct {
	nativeAlloc
	words []atomic.Uint64

	// snapshotHook, when non-nil, runs between the two scans of
	// SnapshotWords. Test seam for deterministic torn-snapshot coverage.
	snapshotHook func()
}

// nativeAlloc is the allocation state shared by NativeArena and
// NativeSizer, so capacity measurement replays exactly the allocator the
// real arena uses.
type nativeAlloc struct {
	n     int
	limit int64 // physical capacity in words; 0 = unbounded (sizer)

	// Whole cache lines are handed out by nextLine, then sub-allocated
	// per home stripe.
	nextLine atomic.Int64
	stripes  []stripe
}

// stripe is one home region's private bump allocator. Padded to a cache
// line so concurrent allocations in different stripes do not false-share
// the allocator state itself.
type stripe struct {
	mu       sync.Mutex
	cur, end int64 // current line span: next free word, first word past it
	_        [5]uint64
}

// NewNativeArena returns a native arena for n processes with capacity for
// the given number of physical words. Word 0 is reserved as null. The
// capacity is rounded up to whole cache lines (minimum two: the null line
// plus one allocatable line), and allocations consume whole lines per the
// layout rules above — size arenas with NewNativeSizer, or via
// rme.WithCapacity at the API level.
func NewNativeArena(n, capacity int) *NativeArena {
	if n <= 0 {
		panic(fmt.Sprintf("memory: invalid process count %d", n))
	}
	a := &NativeArena{}
	a.initAlloc(n)
	lines := (int64(capacity) + LineWords - 1) / LineWords
	if lines < 2 {
		lines = 2
	}
	a.limit = lines * LineWords
	a.words = make([]atomic.Uint64, a.limit)
	return a
}

func (al *nativeAlloc) initAlloc(n int) {
	al.n = n
	al.nextLine.Store(1) // line 0 holds the reserved null word
	al.stripes = make([]stripe, n)
}

// grabLines reserves k whole cache lines and returns the word address of
// the first. The CAS loop never overcommits, so every address below
// bound() is backed by real memory.
func (al *nativeAlloc) grabLines(k int64) int64 {
	for {
		line := al.nextLine.Load()
		end := line + k
		if al.limit > 0 && end*LineWords > al.limit {
			panic(fmt.Sprintf("memory: native arena exhausted (capacity %d words); size it with rme.WithCapacity", al.limit))
		}
		if al.nextLine.CompareAndSwap(line, end) {
			return line * LineWords
		}
	}
}

// alloc implements the layout policy for both the arena and the sizer.
func (al *nativeAlloc) alloc(nwords, home int) Addr {
	if nwords <= 0 {
		panic(fmt.Sprintf("memory: Alloc(%d)", nwords))
	}
	if home != HomeNone && (home < 0 || home >= al.n) {
		panic(fmt.Sprintf("memory: Alloc home %d out of range [0,%d)", home, al.n))
	}
	lines := (int64(nwords) + LineWords - 1) / LineWords
	if home == HomeNone {
		// Truly shared words get exclusive lines: no two HomeNone
		// allocations (nor any home stripe) ever share one.
		return Addr(al.grabLines(lines))
	}
	s := &al.stripes[home]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end-s.cur < int64(nwords) {
		base := al.grabLines(lines)
		s.cur = base
		s.end = base + lines*LineWords
	}
	addr := s.cur
	s.cur += int64(nwords)
	return Addr(addr)
}

// bound returns the first invalid word address: everything below it is
// allocated (or padding within an allocated line) and safely addressable.
func (al *nativeAlloc) bound() int64 {
	return al.nextLine.Load() * LineWords
}

// N returns the number of processes.
func (a *NativeArena) N() int { return a.n }

// Alloc implements Space. home selects the owning process's stripe
// (HomeNone words get exclusive cache lines).
func (a *NativeArena) Alloc(nwords int, home int) Addr { return a.alloc(nwords, home) }

// Size returns the arena's physical footprint in words: everything handed
// out so far, including the reserved null line and cache-line padding.
func (a *NativeArena) Size() int { return int(a.bound()) }

// Capacity returns the arena's fixed physical capacity in words — the
// upper bound on every address it can ever hand out. VersionTables for
// CC-exact RMR accounting are sized with it.
func (a *NativeArena) Capacity() int { return int(a.limit) }

// Peek reads a word without synchronizing with concurrent writers beyond
// the atomicity of the load. Debug use only.
func (a *NativeArena) Peek(addr Addr) Word { return a.words[addr].Load() }

// NativeSizer measures the physical capacity a NativeArena needs for an
// allocation sequence: it implements Space by replaying the arena's exact
// layout policy without backing memory. Replay the construction against a
// sizer, then create the real arena with the measured word count — the
// identical allocation sequence then yields the identical layout.
type NativeSizer struct {
	nativeAlloc
}

// NewNativeSizer returns a sizer for n processes. padded must be true:
// the cache-line-aware layout is the only one NativeArena has.
func NewNativeSizer(n int, padded bool) *NativeSizer {
	if n <= 0 {
		panic(fmt.Sprintf("memory: invalid process count %d", n))
	}
	if !padded {
		panic("memory: NativeSizer measures only the padded layout")
	}
	s := &NativeSizer{}
	s.initAlloc(n)
	return s
}

// Alloc implements Space.
func (s *NativeSizer) Alloc(nwords int, home int) Addr { return s.alloc(nwords, home) }

// Words returns the physical capacity consumed so far, in words.
func (s *NativeSizer) Words() int { return int(s.bound()) }

// FailFunc decides whether the process should crash immediately before the
// instruction it is about to execute. It is the native counterpart of the
// simulator's failure plans and is called on the process's goroutine.
type FailFunc func(pid int, op OpInfo) bool

// ErrCrash is the sentinel panic value used to unwind a native process when
// a fail point fires. Harnesses recover it at the passage boundary.
type ErrCrash struct {
	PID int
	Op  OpInfo
}

// Error implements error.
func (e ErrCrash) Error() string {
	return fmt.Sprintf("process %d crashed at %s %d", e.PID, e.Op.Kind, e.Op.Addr)
}

// AbortFunc is consulted by Pause: returning true makes the waiting process
// unwind with ErrAbort so the harness can back it out of the acquisition.
// Unlike FailFunc it is only polled while the process is spinning — the
// failure-free fast path never pays for it, and the flag it reads lives
// outside the arena (abort intent is ephemeral private state: a crash
// legitimately loses it).
type AbortFunc func(pid int) bool

// ErrAbort is the sentinel panic value used to unwind a native process out
// of a spin loop when its abort flag is raised. Harnesses recover it and
// run the lock's crash-safe back-out (core.Aborter).
type ErrAbort struct {
	PID int
}

// Error implements error.
func (e ErrAbort) Error() string {
	return fmt.Sprintf("process %d aborted while waiting", e.PID)
}

// Port returns process pid's port onto the native arena. fail may be nil.
// The port must be used by one goroutine at a time (the goroutine currently
// impersonating process pid).
func (a *NativeArena) Port(pid int, fail FailFunc) *NativePort {
	if pid < 0 || pid >= a.n {
		panic(fmt.Sprintf("memory: pid %d out of range [0,%d)", pid, a.n))
	}
	return &NativePort{arena: a, words: a.words, pid: pid, fail: fail}
}

// NativePort is a process's view of a NativeArena.
//
// Every instruction reads the fields of the first cache line and writes
// label. The struct fills two whole lines, so a port shares no line with
// another process's port, which would otherwise stall both processes on
// every instruction.
type NativePort struct {
	// words is the arena seen from the port's frame, arena.words[off:]:
	// port address a names arena word off+a (SetOffset). Indexing the
	// view, not the arena, keeps the shift off the instructions.
	words   []atomic.Uint64
	label   string
	onLabel func(label string)
	fail    FailFunc
	// bound caches the arena's allocation bound, in the port's frame, so
	// the hot path validates addresses with a register compare instead of
	// re-reading the shared counter on every instruction; refreshed on
	// miss (the arena only grows).
	bound int64

	arena *NativeArena
	pid   int
	abort AbortFunc
	off   Addr
	// spin is the Pause backoff ladder position.
	spin uint8
	_    [35]byte
}

var _ Port = (*NativePort)(nil)

// PID implements Port.
func (p *NativePort) PID() int { return p.pid }

// N implements Port.
func (p *NativePort) N() int { return p.arena.n }

// Alloc implements Port. It panics on a port whose offset is not zero:
// the arena hands out addresses in its own frame, not the port's.
func (p *NativePort) Alloc(nwords int, home int) Addr {
	if p.off != 0 {
		panic(fmt.Sprintf("memory: Alloc on a port at offset %d", p.off))
	}
	return p.arena.Alloc(nwords, home)
}

// SetOffset shifts the port's frame: from now on address a names arena
// word off+a. One lock object built at a template layout then runs on
// every copy of that layout in the arena, each reached through its own
// offset (rme.Map runs all its keys' regions on one lock this way). Nil
// stays invalid in every frame. A port starts at offset 0, the arena's
// own frame.
func (p *NativePort) SetOffset(off Addr) {
	if off == p.off {
		return
	}
	p.off, p.words = off, p.arena.words[off:]
	p.bound = p.arena.bound() - int64(off)
}

// Label implements Port.
func (p *NativePort) Label(l string) { p.label = l }

// SetAbortHook installs the abort poll consulted by Pause (nil removes
// it). The hook runs on the port's goroutine; when it returns true, Pause
// panics with ErrAbort{PID} instead of backing off, unwinding the spin so
// the harness can run the lock's back-out protocol. Ports without a hook
// pay a single nil comparison per Pause.
func (p *NativePort) SetAbortHook(h AbortFunc) { p.abort = h }

// SetLabelHook installs a callback observing the label of every labeled
// instruction the port executes, invoked just before the instruction's
// memory effect (and before any fail-point decision, matching the
// CountingPort's observation order). The hook runs on the port's
// goroutine; nil removes it. Observers such as the flight recorder hang
// off this seam so the unlabeled hot path stays a nil comparison.
func (p *NativePort) SetLabelHook(h func(label string)) { p.onLabel = h }

// pauseSpinMax bounds the busy-wait ladder: 1<<0 .. 1<<pauseSpinMax empty
// iterations (63 total) before the port yields the processor and the
// ladder resets. Brief spinning lets a waiter catch a release without a
// scheduler round trip; the bound keeps heavily oversubscribed runs live,
// where yielding is the only way forward.
const pauseSpinMax = 6

// pauseCanSpin reports whether busy-waiting can ever pay off: on a single
// processor the awaited writer cannot run concurrently, so every spin
// iteration is wasted and Pause should go straight to the scheduler (the
// same multicore gate sync.Mutex applies to its spinning).
func pauseCanSpin() bool { return runtime.GOMAXPROCS(0) > 1 }

// Pause implements Port: bounded spin-then-yield exponential backoff on
// multicore, a plain yield on a uniprocessor.
func (p *NativePort) Pause() {
	if p.abort != nil && p.abort(p.pid) {
		panic(ErrAbort{PID: p.pid})
	}
	if !pauseCanSpin() {
		runtime.Gosched()
		return
	}
	if p.spin < pauseSpinMax {
		for i := 0; i < 1<<p.spin; i++ {
			// Busy-wait. The gc compiler does not elide empty loops.
		}
		p.spin++
		return
	}
	p.spin = 0
	runtime.Gosched()
}

func (p *NativePort) step(k OpKind, addr Addr) {
	if addr == Nil || int64(addr) >= p.bound {
		p.refreshBound(addr)
	}
	label := p.label
	p.label = ""
	if label != "" && p.onLabel != nil {
		p.onLabel(label)
	}
	if p.fail != nil {
		op := OpInfo{Kind: k, Addr: addr, Label: label}
		if p.fail(p.pid, op) {
			panic(ErrCrash{PID: p.pid, Op: op})
		}
	}
}

// refreshBound reloads the cached allocation bound (the arena may have
// grown since it was cached) and panics if addr is still invalid.
func (p *NativePort) refreshBound(addr Addr) {
	if addr != Nil {
		p.bound = p.arena.bound() - int64(p.off)
		if int64(addr) < p.bound {
			return
		}
	}
	panic(fmt.Sprintf("memory: access to invalid address %d", addr))
}

// Read implements Port.
func (p *NativePort) Read(a Addr) Word {
	p.step(OpRead, a)
	return p.words[a].Load()
}

// Write implements Port.
func (p *NativePort) Write(a Addr, v Word) {
	p.step(OpWrite, a)
	p.words[a].Store(v)
}

// FAS implements Port.
func (p *NativePort) FAS(a Addr, v Word) Word {
	p.step(OpFAS, a)
	return p.words[a].Swap(v)
}

// CAS implements Port.
func (p *NativePort) CAS(a Addr, old, new Word) bool {
	p.step(OpCAS, a)
	return p.words[a].CompareAndSwap(old, new)
}

// ErrTornSnapshot is returned by SnapshotWords when the arena was mutated
// (written or grown) while the snapshot was being taken. Snapshots are
// only meaningful at a quiescent point; a torn one must never be restored
// as if it were consistent.
var ErrTornSnapshot = errors.New("memory: arena mutated during snapshot (quiescence violated)")

// Words returns an atomic-per-word copy of the arena's physical contents
// (index 0 is the reserved null word; the copy includes cache-line
// padding holes). It does not detect concurrent writers — debug use only;
// snapshots that may be restored must use SnapshotWords.
func (a *NativeArena) Words() []Word {
	size := a.bound()
	out := make([]Word, size)
	for i := int64(1); i < size; i++ {
		out[i] = a.words[i].Load()
	}
	return out
}

// SnapshotWords returns a copy of the arena's physical contents, verifying
// the quiescence contract: the scan is performed twice and any word that
// changed between the scans — or any allocation that grew the arena —
// yields ErrTornSnapshot instead of a silently inconsistent snapshot.
// (A writer that races the scans without changing any scanned value is
// indistinguishable from quiescence and harmless by the same token.)
func (a *NativeArena) SnapshotWords() ([]Word, error) {
	size := a.bound()
	out := make([]Word, size)
	for i := int64(1); i < size; i++ {
		out[i] = a.words[i].Load()
	}
	if a.snapshotHook != nil {
		a.snapshotHook()
	}
	for i := int64(1); i < size; i++ {
		if a.words[i].Load() != out[i] {
			return nil, fmt.Errorf("%w: word %d changed mid-scan", ErrTornSnapshot, i)
		}
	}
	if a.bound() != size {
		return nil, fmt.Errorf("%w: arena grew mid-scan", ErrTornSnapshot)
	}
	return out, nil
}

// SetWords overwrites the arena contents from a snapshot taken by
// SnapshotWords on an identically laid-out arena (same process count,
// options and allocation sequence — layouts are deterministic, so a
// freshly constructed arena of the same configuration qualifies). It fails
// if the snapshot does not match the arena's physical footprint. Like
// SnapshotWords, it requires quiescence: no port may operate concurrently.
func (a *NativeArena) SetWords(ws []Word) error {
	if int64(len(ws)) != a.bound() {
		return fmt.Errorf("memory: snapshot has %d words, arena has %d allocated", len(ws), a.bound())
	}
	for i := 1; i < len(ws); i++ {
		a.words[i].Store(ws[i])
	}
	return nil
}
