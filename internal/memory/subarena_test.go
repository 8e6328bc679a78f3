package memory

import "testing"

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

// carveThree replays the allocation sequence into a sizer and carves
// three regions of the template's length (the sizer's lines after the
// null line) from an arena with one line to spare.
func carveThree(t *testing.T, n int) (tmpl []Addr, arena *NativeArena, subs []*SubArena) {
	t.Helper()
	szr := NewNativeSizer(n, true)
	tmpl = replayAllocs(szr, n)
	lines := szr.Lines() - 1
	if lines < 1 {
		t.Fatalf("template spans %d lines", lines)
	}
	arena = NewNativeArena(n, (1+3*lines+1)*LineWords)
	return tmpl, arena, []*SubArena{arena.Carve(lines), arena.Carve(lines), arena.Carve(lines)}
}

// TestOffsetPortAddressesRegion pins the translation invariance a Map
// relies on: through a port at offset lo-LineWords, every template
// address lands in the region [lo, hi), shifted by the offset, and no
// word outside the region is touched.
func TestOffsetPortAddressesRegion(t *testing.T) {
	const n, sentinel = 4, Word(1) << 40
	tmpl, arena, subs := carveThree(t, n)
	lo, hi := subs[1].Bounds()
	off := lo - LineWords
	abs := arena.Port(0, nil)
	for a := Addr(1); a < Addr(arena.Size()); a++ {
		abs.Write(a, sentinel+Word(a))
	}

	p := arena.Port(1, nil)
	p.SetOffset(off)
	want := map[Addr]Word{}
	for i, a := range tmpl {
		p.Write(a, Word(i)+1)
		if w := a + off; w < lo || w >= hi {
			t.Fatalf("template address %d lands at %d, outside the region [%d,%d)", a, w, lo, hi)
		}
		want[a+off] = Word(i) + 1
	}
	for a := Addr(1); a < Addr(arena.Size()); a++ {
		w, ok := want[a]
		if !ok {
			w = sentinel + Word(a)
		}
		if got := arena.Peek(a); got != w {
			t.Fatalf("word %d = %d after writing the template through offset %d, want %d", a, got, off, w)
		}
	}

	for i, a := range tmpl {
		v := Word(i) + 1
		if got := p.Read(a); got != v {
			t.Fatalf("Read(%d) = %d, want %d", a, got, v)
		}
		if got := p.FAS(a, v+100); got != v {
			t.Fatalf("FAS(%d) returned %d, want %d", a, got, v)
		}
		if !p.CAS(a, v+100, v+200) {
			t.Fatalf("CAS(%d) missed the word FAS stored", a)
		}
		if got := arena.Peek(a + off); got != v+200 {
			t.Fatalf("word %d = %d after CAS through offset %d, want %d", a+off, got, off, v+200)
		}
	}
	mustPanic(t, "relative nil", func() { p.Read(Nil) })
	mustPanic(t, "past the allocated bound", func() { p.Read(Addr(arena.Size()) - off) })
	mustPanic(t, "alloc at an offset", func() { p.Alloc(1, 0) })
}

// TestOffsetCountingPortCache: versions and cache state stay per arena
// word whatever the frame. A word written through one frame is an RMR
// when read through another, and two arena words that share an address
// in different frames do not share cache state.
func TestOffsetCountingPortCache(t *testing.T) {
	arena := NewNativeArena(2, 4*LineWords)
	arena.Carve(3)
	vt := NewVersionTable(arena.Capacity())
	p0 := CountPort(arena.Port(0, nil), vt, nil)
	p1 := CountPort(arena.Port(1, nil), vt, nil)
	const rel = Addr(LineWords + 1)
	p1.SetOffset(LineWords)
	rmrs := func(reads int) uint64 {
		t.Helper()
		before := p1.Counts().RMRs
		for i := 0; i < reads; i++ {
			p1.Read(rel)
		}
		return p1.Counts().RMRs - before
	}

	p0.Write(rel+LineWords, 5)
	if got := p1.Read(rel); got != 5 {
		t.Fatalf("read %d through offset %d, want the 5 written at %d", got, LineWords, rel+LineWords)
	}
	p0.Write(rel+LineWords, 6)
	if got := rmrs(3); got != 1 {
		t.Fatalf("three reads after another frame's write cost %d RMRs, want 1", got)
	}

	p1.SetOffset(2 * LineWords)
	if got := rmrs(1); got != 1 {
		t.Fatalf("reading the same address in a new frame cost %d RMRs, want 1 (a different word)", got)
	}
	p1.SetOffset(LineWords)
	if got := rmrs(1); got != 0 {
		t.Fatalf("returning to the first frame cost %d RMRs, want 0 (its word is still cached)", got)
	}
	// InvalidateCache drops every frame's words, including those below
	// the current frame's view.
	p1.SetOffset(0)
	rmrs(1)
	p1.SetOffset(2 * LineWords)
	p1.InvalidateCache()
	p1.SetOffset(0)
	if got := rmrs(1); got != 1 {
		t.Fatalf("after InvalidateCache at offset %d a read at offset 0 cost %d RMRs, want 1", 2*LineWords, got)
	}
	mustPanic(t, "alloc at an offset", func() { p1.Alloc(1, 1) })
}

// TestSubArenaReset checks the recycle contract: Reset zeroes exactly
// the region's words — its neighbours, down to the words just outside
// [lo, hi), keep their values.
func TestSubArenaReset(t *testing.T) {
	_, arena, subs := carveThree(t, 2)
	p := arena.Port(0, nil)
	for a := Addr(1); a < Addr(arena.Size()); a++ {
		p.Write(a, Word(a)+7)
	}
	sub := subs[1]
	sub.Reset()
	lo, hi := sub.Bounds()
	for a := Addr(1); a < Addr(arena.Size()); a++ {
		want := Word(a) + 7
		if a >= lo && a < hi {
			want = 0
		}
		if v := arena.Peek(a); v != want {
			t.Fatalf("word %d = %d after resetting [%d,%d), want %d", a, v, lo, hi, want)
		}
	}
}

// TestVersionTableInvalidate: after a region recycle, a port that had
// the old words cached must pay an RMR on its next read (the CC model's
// view of fresh memory), which Invalidate forces by bumping versions.
func TestVersionTableInvalidate(t *testing.T) {
	arena := NewNativeArena(1, 4*LineWords)
	sub := arena.Carve(2)
	lo, hi := sub.Bounds()
	a := lo + 1
	vt := NewVersionTable(arena.Capacity())
	cp := CountPort(arena.Port(0, nil), vt, nil)
	cp.Read(a)
	before := cp.Counts()
	cp.Read(a) // cached: no RMR
	if got := cp.Counts().RMRs; got != before.RMRs {
		t.Fatalf("cached re-read charged an RMR (%d -> %d)", before.RMRs, got)
	}
	sub.Reset()
	vt.Invalidate(lo, hi)
	cp.Read(a)
	if got := cp.Counts().RMRs; got != before.RMRs+1 {
		t.Fatalf("post-recycle read charged %d RMRs, want exactly 1", got-before.RMRs)
	}
}
