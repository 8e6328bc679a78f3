package memory

import "fmt"

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
// small lock per key this way and recycle the regions as keys churn.
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
	s := &SubArena{
		parent:   a,
		baseLine: a.grabLines(int64(lines)) / LineWords,
		lines:    int64(lines),
	}
	s.resetAlloc()
	return s
}

// resetAlloc (re)initializes the region's private allocator: fresh home
// stripes, the line counter at the region base, and the limit at the
// region end. The parent's line 0 holds the global null word and every
// region starts at line 1 or later, so no region address is ever Nil.
func (s *SubArena) resetAlloc() {
	s.alloc = nativeAlloc{n: s.parent.n, region: true}
	s.alloc.limit = (s.baseLine + s.lines) * LineWords
	s.alloc.stripes = make([]stripe, s.parent.n)
	s.alloc.nextLine.Store(s.baseLine)
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

// Reset zeroes the region's words and reinitializes its allocator, so
// the next construction replayed into the region lands on the same
// relative addresses with all-zero initial state — exactly a freshly
// carved region. The caller must guarantee quiescence: no port may be
// reading or writing the region, and no process may hold a recoverable
// claim (a queue node, a filter slot, a lock) inside it. Callers doing
// CC-exact RMR accounting must also invalidate the region's address
// range in their VersionTable: the zeroed words are new memory, not
// cached copies.
func (s *SubArena) Reset() {
	lo, hi := s.baseLine*LineWords, (s.baseLine+s.lines)*LineWords
	for i := lo; i < hi; i++ {
		s.parent.words[i].Store(0)
	}
	s.resetAlloc()
}

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
