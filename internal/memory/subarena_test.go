package memory

import (
	"strings"
	"testing"
)

// replayAllocs runs a fixed mixed allocation sequence (striped words,
// multi-word blocks, HomeNone lines) and returns every address.
func replayAllocs(sp Space, n int) []Addr {
	var out []Addr
	for pid := 0; pid < n; pid++ {
		out = append(out, sp.Alloc(1, pid))
		out = append(out, sp.Alloc(3, pid))
	}
	out = append(out, sp.Alloc(1, HomeNone))
	out = append(out, sp.Alloc(LineWords+1, HomeNone))
	for pid := 0; pid < n; pid++ {
		out = append(out, sp.Alloc(2, pid))
	}
	return out
}

// TestSubArenaDeterminism pins the translation invariance the keyed lock
// manager relies on: a sequence replayed against a sub-sizer predicts
// the exact relative addresses the same sequence produces in any carved
// region, and every carved region reproduces the same relative layout.
func TestSubArenaDeterminism(t *testing.T) {
	const n = 4
	szr := NewSubSizer(n)
	want := replayAllocs(szr, n)
	lines := szr.Lines()
	if lines < 1 {
		t.Fatalf("Lines() = %d", lines)
	}

	arena := NewNativeArena(n, (1+3*lines)*LineWords)
	subs := []*SubArena{arena.Carve(lines), arena.Carve(lines), arena.Carve(lines)}
	for si, sub := range subs {
		lo, hi := sub.Bounds()
		got := replayAllocs(sub, n)
		for i, a := range got {
			if rel := a - lo; rel != want[i] {
				t.Fatalf("sub %d alloc %d: relative address %d, sizer predicted %d", si, i, rel, want[i])
			}
			if a < lo || a >= hi {
				t.Fatalf("sub %d alloc %d: address %d outside region [%d,%d)", si, i, a, lo, hi)
			}
		}
		if sub.Words() > sub.Lines()*LineWords {
			t.Fatalf("sub %d: Words() = %d exceeds region %d", si, sub.Words(), sub.Lines()*LineWords)
		}
	}
	// Regions are disjoint.
	for i := 0; i < len(subs); i++ {
		for j := i + 1; j < len(subs); j++ {
			ilo, ihi := subs[i].Bounds()
			jlo, jhi := subs[j].Bounds()
			if ilo < jhi && jlo < ihi {
				t.Fatalf("regions %d [%d,%d) and %d [%d,%d) overlap", i, ilo, ihi, j, jlo, jhi)
			}
		}
	}
}

// TestSubArenaReset checks the recycle contract: Reset zeroes exactly
// the region's words — its neighbours, down to the words just outside
// [lo, hi), keep their values — and leaves the allocator where it was,
// so a structure built in the region keeps its addresses.
func TestSubArenaReset(t *testing.T) {
	const n = 2
	szr := NewSubSizer(n)
	replayAllocs(szr, n)
	lines := szr.Lines()

	arena := NewNativeArena(n, (1+3*lines)*LineWords)
	subs := []*SubArena{arena.Carve(lines), arena.Carve(lines), arena.Carve(lines)}
	for _, sub := range subs {
		replayAllocs(sub, n)
	}
	sub := subs[1]
	words := sub.Words()
	p := arena.Port(0, nil)
	for a := Addr(1); a < Addr(arena.Capacity()); a++ {
		p.Write(a, Word(a)+7)
	}
	sub.Reset()
	lo, hi := sub.Bounds()
	for a := Addr(1); a < Addr(arena.Capacity()); a++ {
		want := Word(a) + 7
		if a >= lo && a < hi {
			want = 0
		}
		if v := arena.Peek(a); v != want {
			t.Fatalf("word %d = %d after resetting [%d,%d), want %d", a, v, lo, hi, want)
		}
	}
	if got := sub.Words(); got != words {
		t.Fatalf("Words() = %d after Reset, was %d: the allocator moved", got, words)
	}
}

// TestSubArenaExhausted pins the region-specific exhaustion diagnostic:
// overflowing a region must blame the region, not suggest resizing the
// whole arena.
func TestSubArenaExhausted(t *testing.T) {
	arena := NewNativeArena(1, 4*LineWords)
	sub := arena.Carve(1)
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("overflowing a 1-line region did not panic")
		}
		msg, ok := e.(string)
		if !ok || !strings.Contains(msg, "sub-arena region exhausted") {
			t.Fatalf("panic = %v, want a sub-arena exhaustion message", e)
		}
	}()
	sub.Alloc(LineWords+1, HomeNone)
}

// TestVersionTableInvalidate: after a region recycle, a port that had
// the old words cached must pay an RMR on its next read (the CC model's
// view of fresh memory), which Invalidate forces by bumping versions.
func TestVersionTableInvalidate(t *testing.T) {
	arena := NewNativeArena(1, 4*LineWords)
	sub := arena.Carve(2)
	a := sub.Alloc(1, 0)
	vt := NewVersionTable(arena.Capacity())
	cp := CountPort(arena.Port(0, nil), vt, nil)
	cp.Read(a)
	before := cp.Counts()
	cp.Read(a) // cached: no RMR
	if got := cp.Counts().RMRs; got != before.RMRs {
		t.Fatalf("cached re-read charged an RMR (%d -> %d)", before.RMRs, got)
	}
	sub.Reset()
	lo, hi := sub.Bounds()
	vt.Invalidate(lo, hi)
	cp.Read(a)
	if got := cp.Counts().RMRs; got != before.RMRs+1 {
		t.Fatalf("post-recycle read charged %d RMRs, want exactly 1", got-before.RMRs)
	}
}
