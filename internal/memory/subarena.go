package memory

import (
	"fmt"
	"sync/atomic"
)

// This file generalizes the native arena from "one fixed deterministic
// layout per lock" to "many small deterministic sub-arenas": a SubArena
// is a region of whole cache lines carved out of a parent NativeArena,
// with its own private allocator running the parent's exact layout
// policy (home stripes of whole lines, exclusive lines for HomeNone
// words). A lock constructed inside a sub-arena therefore keeps the
// padding discipline — no word of one region ever shares a line with
// another region, and within the region no two processes' spin words
// share a line — while the backing words, and the ports that access
// them, remain the parent's. Keyed lock managers (rme.Map) build one
// small lock per region this way, once, and recycle the region, lock
// and all, as keys churn.
//
// Layouts are translation invariant: the allocator deals exclusively in
// line-granular offsets, so replaying an allocation sequence against a
// sub-sizer (NewSubSizer, which starts at relative line 0) predicts the
// exact addresses the same sequence produces in a carved region, shifted
// by the region's base. Measure once, then carve every region with the
// measured line count.

// SubArena is a region allocator over a contiguous span of whole cache
// lines owned by a parent NativeArena. It implements Space; ports are
// not created from it — the parent arena's ports address the region's
// words directly (every carved address is below the parent's allocation
// bound).
type SubArena struct {
	parent   *NativeArena
	baseLine int64 // first line of the region in the parent
	lines    int64 // region length in lines
	alloc    nativeAlloc
}

var _ Space = (*SubArena)(nil)

// Carve reserves lines whole cache lines from the arena and returns the
// sub-arena spanning them. The span is permanent — a sub-arena is
// recycled with Reset, never returned to the parent.
func (a *NativeArena) Carve(lines int) *SubArena {
	if lines < 1 {
		panic(fmt.Sprintf("memory: Carve(%d)", lines))
	}
	// The region's private allocator starts with fresh home stripes at
	// the region base and stops at the region end. The parent's line 0
	// holds the global null word and every region starts at line 1 or
	// later, so no region address is ever Nil.
	base := a.grabLines(int64(lines)) / LineWords
	s := &SubArena{parent: a, baseLine: base, lines: int64(lines)}
	s.alloc = nativeAlloc{n: a.n, region: true, limit: (base + int64(lines)) * LineWords}
	s.alloc.stripes = make([]stripe, a.n)
	s.alloc.nextLine.Store(base)
	return s
}

// N returns the number of processes.
func (s *SubArena) N() int { return s.alloc.n }

// Alloc implements Space with the parent's layout policy, confined to
// the region; it panics when the region is exhausted.
func (s *SubArena) Alloc(nwords int, home int) Addr { return s.alloc.alloc(nwords, home) }

// Bounds returns the region's word-address range [lo, hi).
func (s *SubArena) Bounds() (lo, hi Addr) {
	return Addr(s.baseLine * LineWords), Addr((s.baseLine + s.lines) * LineWords)
}

// Lines returns the region length in cache lines.
func (s *SubArena) Lines() int { return int(s.lines) }

// Words returns the region's physical footprint in words (every line
// handed out by the region allocator, including padding).
func (s *SubArena) Words() int { return int(s.alloc.bound() - s.baseLine*LineWords) }

// Reset zeroes the region's words and nothing else: the allocator is not
// restarted, so whatever was constructed in the region keeps its
// addresses. Alloc hands out zeroed words, so a construction that only
// allocates leaves exactly this all-zero state: after Reset it is
// indistinguishable from the same construction in a freshly carved
// region, and can be reused as is.
//
// The caller must guarantee quiescence: no process may hold a
// recoverable claim (a queue node, a filter slot, a lock) inside the
// region, and Reset must be ordered against every port access to it (a
// mutex both sides take suffices). The words are cleared with plain
// stores, which a race build reports as racing with any access not so
// ordered. Callers doing CC-exact RMR accounting must also invalidate
// the region's address range in their VersionTable: the zeroed words
// are new memory, not cached copies.
func (s *SubArena) Reset() {
	lo, hi := s.Bounds()
	words := s.parent.words[lo:hi]
	if raceWrite != nil {
		raceWrite(words)
	}
	clear(words)
}

// raceWrite is set in race builds only (race.go).
var raceWrite func(words []atomic.Uint64)

// NewSubSizer returns a sizer measuring the region footprint of an
// allocation sequence: it starts at relative
// line 0 (a region reserves no null line — the parent's line 0 serves
// every region), so Lines() after replaying a construction is exactly
// the line count to pass to Carve, and the construction replayed into
// the carved region lands on the measured addresses shifted by the
// region base.
func NewSubSizer(n int) *NativeSizer {
	if n <= 0 {
		panic(fmt.Sprintf("memory: invalid process count %d", n))
	}
	s := &NativeSizer{}
	s.initAlloc(n)
	s.region = true
	s.nextLine.Store(0)
	return s
}

// Lines returns the whole cache lines consumed so far. For a sizer made
// by NewNativeSizer this includes the reserved null line; for a
// NewSubSizer it is the exact region length to Carve.
func (s *NativeSizer) Lines() int { return int(s.nextLine.Load()) }

// Invalidate bumps the write version of every word in [lo, hi), making
// every CountingPort treat its next read of those words as uncached — an
// RMR. Recyclers call it after SubArena.Reset: the region's words are
// new memory under the CC model, whatever copies a port cached before
// the recycle are gone.
func (t *VersionTable) Invalidate(lo, hi Addr) {
	if hi > Addr(len(t.ver)) {
		hi = Addr(len(t.ver))
	}
	for a := lo; a < hi; a++ {
		t.ver[a].Add(1)
	}
}
