package memory

import (
	"fmt"
	"sync/atomic"
)

// A SubArena is a region of whole cache lines carved out of a
// NativeArena. Regions are how one lock serves many keys (rme.Map): the
// lock is built once at a template layout, each key's region holds its
// own instance of the lock's words, and a process reaches a region
// through a port whose offset (NativePort.SetOffset) shifts every
// template address into it. Layouts are translation invariant — the
// allocator deals only in whole lines — so a template built in a
// NativeSizer occupies exactly the sizer's lines after the reserved null
// line, and a region of that many lines starting at word lo holds it at
// offset lo-LineWords. Because carving happens in whole lines, no word
// of one region shares a line with another region, and the template's
// home-stripe padding survives in every region.

// SubArena is a contiguous span of whole cache lines owned by a parent
// NativeArena, whose ports reach its words when shifted into it by their
// offset.
type SubArena struct {
	parent   *NativeArena
	baseLine int64 // first line of the region in the parent
	lines    int64 // region length in lines
}

// Carve reserves lines whole cache lines from the arena and returns the
// sub-arena spanning them. The span is permanent — a sub-arena is
// recycled with Reset, never returned to the parent. The parent's line 0
// holds the global null word, so every region starts at line 1 or later.
func (a *NativeArena) Carve(lines int) *SubArena {
	if lines < 1 {
		panic(fmt.Sprintf("memory: Carve(%d)", lines))
	}
	base := a.grabLines(int64(lines)) / LineWords
	return &SubArena{parent: a, baseLine: base, lines: int64(lines)}
}

// Bounds returns the region's word-address range [lo, hi).
func (s *SubArena) Bounds() (lo, hi Addr) {
	return Addr(s.baseLine * LineWords), Addr((s.baseLine + s.lines) * LineWords)
}

// Reset zeroes the region's words and nothing else. Alloc hands out
// zeroed words and no constructor stores anything, so a template lock's
// words start all zero: after Reset the region holds exactly a freshly
// built lock again, and can be reused as is.
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

// Lines returns the whole cache lines consumed so far, including the
// reserved null line.
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
