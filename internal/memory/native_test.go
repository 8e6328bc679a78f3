package memory

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func line(a Addr) int64 { return int64(a) / LineWords }

// TestPaddedLayoutSeparatesHomes is the core false-sharing guarantee: under
// the padded layout, no two processes' home allocations — the words they
// spin on locally — ever share a 64-byte cache line, no matter how the
// allocations interleave. HomeNone words get exclusive lines of their own.
func TestPaddedLayoutSeparatesHomes(t *testing.T) {
	const n = 8
	a := NewNativeArena(n, 64*LineWords)

	// Interleave allocations across homes the way real lock constructors
	// do (per-process state arrays allocated home by home, round-robin).
	owner := map[int64]int{} // line -> home that owns it (n = HomeNone)
	claim := func(addr Addr, nwords, home int) {
		t.Helper()
		for w := int64(addr); w < int64(addr)+int64(nwords); w++ {
			l := w / LineWords
			if prev, taken := owner[l]; taken && prev != home {
				t.Fatalf("line %d shared between home %d and home %d", l, prev, home)
			}
			owner[l] = home
		}
	}
	for round := 0; round < 3; round++ {
		for home := 0; home < n; home++ {
			claim(a.Alloc(1, home), 1, home)
		}
		claim(a.Alloc(1, HomeNone), 1, n)
	}
	// Multi-word allocations respect the same separation.
	for home := 0; home < n; home++ {
		claim(a.Alloc(3, home), 3, home)
	}
	claim(a.Alloc(LineWords+1, HomeNone), LineWords+1, n)

	// HomeNone allocations must be line-exclusive even against each other:
	// the last two claims above went to stripe "n" collectively, so check
	// pairwise directly.
	x := a.Alloc(1, HomeNone)
	y := a.Alloc(1, HomeNone)
	if line(x) == line(y) {
		t.Fatalf("two HomeNone allocations share line %d", line(x))
	}
}

// TestPaddedSameHomePacks verifies the flip side: a single process's words
// pack densely within its own lines (no 8x blowup for per-process state).
func TestPaddedSameHomePacks(t *testing.T) {
	a := NewNativeArena(2, 16*LineWords)
	first := a.Alloc(1, 0)
	for i := 1; i < LineWords; i++ {
		got := a.Alloc(1, 0)
		if int64(got) != int64(first)+int64(i) {
			t.Fatalf("alloc %d of home 0 = %d, want %d (dense packing)", i, got, int64(first)+int64(i))
		}
	}
}

func TestPaddedNullLineReserved(t *testing.T) {
	a := NewNativeArena(1, 8*LineWords)
	got := a.Alloc(1, 0)
	if got == Nil {
		t.Fatal("Alloc returned null")
	}
	if line(got) == 0 {
		t.Fatalf("allocation %d landed on the reserved null line", got)
	}
}

func TestNativeHomeValidation(t *testing.T) {
	a := NewNativeArena(2, 8*LineWords)
	mustPanic(t, "home too big", func() { a.Alloc(1, 2) })
	mustPanic(t, "home negative", func() { a.Alloc(1, -2) })
}

// TestNativeSizerMatchesArena: replaying an allocation sequence against the
// sizer predicts the arena's physical footprint and addresses exactly —
// the property rme.New's capacity measurement depends on.
func TestNativeSizerMatchesArena(t *testing.T) {
	sizer := NewNativeSizer(4, true)
	seq := []struct{ nwords, home int }{
		{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, HomeNone}, {4, 0}, {2, HomeNone},
		{1, 1}, {9, 2}, {1, 0}, {1, HomeNone}, {3, 3},
	}
	var want []Addr
	for _, s := range seq {
		want = append(want, sizer.Alloc(s.nwords, s.home))
	}
	a := NewNativeArena(4, sizer.Words())
	for i, s := range seq {
		got := a.Alloc(s.nwords, s.home)
		if got != want[i] {
			t.Fatalf("alloc %d: arena %d, sizer %d", i, got, want[i])
		}
	}
	if a.Size() != sizer.Words() {
		t.Fatalf("footprint %d, sizer %d", a.Size(), sizer.Words())
	}
	// The padded layout is the only one there is.
	mustPanic(t, "dense sizer", func() { NewNativeSizer(4, false) })
}

// TestCachedBoundRefreshes: a port created before later allocations must
// still accept their addresses (the cached bound refreshes on miss), and
// must still reject addresses beyond the arena.
func TestCachedBoundRefreshes(t *testing.T) {
	a := NewNativeArena(1, 32*LineWords)
	p := a.Port(0, nil)
	x := a.Alloc(1, 0)
	p.Write(x, 1) // first op: bound cached
	y := a.Alloc(1, HomeNone)
	p.Write(y, 2) // beyond the cached bound: must refresh, not panic
	if p.Read(y) != 2 {
		t.Fatal("read after refresh broken")
	}
	mustPanic(t, "still invalid after refresh", func() { p.Read(Addr(31 * LineWords)) })
	mustPanic(t, "nil", func() { p.Read(Nil) })
}

// TestNativeHookContract pins what a NativePort's hooks see. A label
// hook observes each non-empty label once, before its own instruction's
// memory effect, and never on the next instruction; a fail hook sees the
// label in OpInfo on its instruction only; with both, both see it, the
// label hook first. A port with neither hook keeps no label, so a hook
// installed later observes nothing stale. Without hooks every
// instruction still rejects Nil and addresses past the bound, and
// accepts addresses the arena grew into after the port was made.
func TestNativeHookContract(t *testing.T) {
	a := NewNativeArena(1, 16*LineWords)
	x := a.Alloc(1, 0)
	// The ops run one instruction of each kind on x: Write sets 1, FAS
	// sets 2, CAS turns 2 into 3, and Read leaves 3.
	ops := []struct {
		name string
		run  func(p *NativePort)
	}{
		{"write", func(p *NativePort) { p.Write(x, 1) }},
		{"fas", func(p *NativePort) { p.FAS(x, 2) }},
		{"cas", func(p *NativePort) { p.CAS(x, 2, 3) }},
		{"read", func(p *NativePort) { p.Read(x) }},
	}
	// run labels each op's instruction with the op's name, except the
	// first, which gets the empty label, and follows each with an
	// unlabeled Read. It returns what the hooks recorded, each entry as
	// hook:label@x, x read when the hook ran.
	run := func(p *NativePort, seen *[]string) []string {
		for i, op := range ops {
			label := op.name
			if i == 0 {
				label = ""
			}
			p.Label(label)
			op.run(p)
			p.Read(x)
		}
		return *seen
	}
	record := func(seen *[]string, who string) func(string) {
		return func(l string) { *seen = append(*seen, fmt.Sprintf("%s:%s@%d", who, l, a.Peek(x))) }
	}
	check := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("hooks saw %q, want %q", got, want)
		}
	}

	t.Run("label", func(t *testing.T) {
		a.Port(0, nil).Write(x, 0)
		var seen []string
		p := a.Port(0, nil)
		p.SetLabelHook(record(&seen, "label"))
		check(t, run(p, &seen), "label:fas@1", "label:cas@2", "label:read@3")
		if p.label != "" {
			t.Errorf("a port without a fail hook kept label %q", p.label)
		}
	})
	t.Run("fail", func(t *testing.T) {
		a.Port(0, nil).Write(x, 0)
		var seen []string
		p := a.Port(0, func(_ int, op OpInfo) bool {
			seen = append(seen, fmt.Sprintf("fail:%s@%d", op.Label, a.Peek(x)))
			return false
		})
		check(t, run(p, &seen),
			"fail:@0", "fail:@1", "fail:fas@1", "fail:@2", "fail:cas@2", "fail:@3", "fail:read@3", "fail:@3")
	})
	t.Run("both", func(t *testing.T) {
		a.Port(0, nil).Write(x, 0)
		var seen []string
		fail := record(&seen, "fail")
		p := a.Port(0, func(_ int, op OpInfo) bool { fail(op.Label); return false })
		p.SetLabelHook(record(&seen, "label"))
		check(t, run(p, &seen),
			"fail:@0", "fail:@1",
			"label:fas@1", "fail:fas@1", "fail:@2",
			"label:cas@2", "fail:cas@2", "fail:@3",
			"label:read@3", "fail:read@3", "fail:@3")
	})
	t.Run("neither", func(t *testing.T) {
		p := a.Port(0, nil)
		p.Label("stale")
		if p.label != "" {
			t.Errorf("a port without hooks kept label %q", p.label)
		}
		var seen []string
		p.SetLabelHook(record(&seen, "label"))
		p.Write(x, 0)
		check(t, seen)
	})
	t.Run("unhooked-bounds", func(t *testing.T) {
		p := a.Port(0, nil)
		past := Addr(a.Capacity())
		for _, op := range []struct {
			name string
			run  func(a Addr)
		}{
			{"read", func(a Addr) { p.Read(a) }},
			{"write", func(a Addr) { p.Write(a, 1) }},
			{"fas", func(a Addr) { p.FAS(a, 1) }},
			{"cas", func(a Addr) { p.CAS(a, 0, 1) }},
		} {
			mustPanic(t, op.name+" nil", func() { op.run(Nil) })
			mustPanic(t, op.name+" past the bound", func() { op.run(past - 1) })
			y := a.Alloc(1, HomeNone) // beyond the bound p has cached
			op.run(y)
		}
	})
}

func TestPauseBackoffLadder(t *testing.T) {
	// Force the multicore path so the ladder is exercised even on a
	// single-CPU machine (where Pause skips spinning entirely).
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	a := NewNativeArena(1, 8*LineWords)
	p := a.Port(0, nil)
	// The ladder must cycle (spin, spin, ..., yield, reset) without
	// wedging; 1000 pauses cross the reset boundary many times.
	sawTop := false
	for i := 0; i < 1000; i++ {
		p.Pause()
		if p.spin > pauseSpinMax {
			t.Fatalf("spin ladder escaped its bound: %d", p.spin)
		}
		if p.spin == pauseSpinMax {
			sawTop = true
		}
	}
	if !sawTop {
		t.Fatal("spin ladder never reached its top rung")
	}

	// Uniprocessor ports must not spin at all.
	runtime.GOMAXPROCS(1)
	q := a.Port(0, nil)
	for i := 0; i < 10; i++ {
		q.Pause()
	}
	if q.spin != 0 {
		t.Fatalf("uniprocessor Pause advanced the spin ladder to %d", q.spin)
	}
}

// TestSnapshotWordsQuiescent: with no concurrent writers the verified
// snapshot equals the debug copy and restores bit for bit.
func TestSnapshotWordsQuiescent(t *testing.T) {
	a := NewNativeArena(2, 8*LineWords)
	x := a.Alloc(1, 0)
	y := a.Alloc(1, 1)
	p := a.Port(0, nil)
	p.Write(x, 7)
	p.Write(y, 9)

	ws, err := a.SnapshotWords()
	if err != nil {
		t.Fatalf("quiescent snapshot failed: %v", err)
	}
	if ws[x] != 7 || ws[y] != 9 {
		t.Fatalf("snapshot contents wrong: %v", ws)
	}
	debug := a.Words()
	if len(debug) != len(ws) {
		t.Fatalf("Words/SnapshotWords disagree on size: %d vs %d", len(debug), len(ws))
	}

	b := NewNativeArena(2, 8*LineWords)
	b.Alloc(1, 0)
	b.Alloc(1, 1)
	if err := b.SetWords(ws); err != nil {
		t.Fatalf("SetWords: %v", err)
	}
	if b.Peek(x) != 7 || b.Peek(y) != 9 {
		t.Fatal("restore lost values")
	}
	// Mismatched layout is rejected, not silently misapplied.
	c := NewNativeArena(2, 8*LineWords)
	if err := c.SetWords(ws); err == nil {
		t.Fatal("SetWords accepted a snapshot for a differently-sized arena")
	}
}

// TestSnapshotWordsDetectsWrite: a write landing between the two scans —
// the torn-snapshot hazard — is detected deterministically via the test
// seam.
func TestSnapshotWordsDetectsWrite(t *testing.T) {
	a := NewNativeArena(1, 8*LineWords)
	x := a.Alloc(1, 0)
	p := a.Port(0, nil)
	p.Write(x, 1)
	a.snapshotHook = func() { p.Write(x, 2) }
	if _, err := a.SnapshotWords(); !errors.Is(err, ErrTornSnapshot) {
		t.Fatalf("err = %v, want ErrTornSnapshot", err)
	}
	// And an allocation growing the arena mid-scan is torn too. (A
	// same-home alloc can fit inside the stripe's current line without
	// moving the bound — that is harmless by construction, since the
	// fresh words are zero and unwritten — so grow with a line-grabbing
	// HomeNone alloc.)
	a.snapshotHook = func() { a.Alloc(1, HomeNone) }
	if _, err := a.SnapshotWords(); !errors.Is(err, ErrTornSnapshot) {
		t.Fatalf("grow: err = %v, want ErrTornSnapshot", err)
	}
	a.snapshotHook = nil
	if _, err := a.SnapshotWords(); err != nil {
		t.Fatalf("arena unusable after torn snapshots: %v", err)
	}
}

// TestSnapshotWordsUnderRacingWriter: with a live concurrent writer,
// SnapshotWords either reports a torn snapshot or returns a copy — it must
// never panic or race (this test is meaningful under -race).
func TestSnapshotWordsUnderRacingWriter(t *testing.T) {
	a := NewNativeArena(1, 8*LineWords)
	x := a.Alloc(1, 0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := a.Port(0, nil)
		for i := Word(0); !stop.Load(); i++ {
			p.Write(x, i)
		}
	}()
	for i := 0; i < 100; i++ {
		ws, err := a.SnapshotWords()
		if err == nil && int64(len(ws)) != a.bound() {
			t.Fatal("successful snapshot with wrong size")
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestNativeConcurrentAlloc: the striped allocator hands out disjoint
// memory under concurrent allocation from many goroutines (run with -race).
func TestNativeConcurrentAlloc(t *testing.T) {
	const n = 8
	const perProc = 64
	a := NewNativeArena(n, n*perProc*2*LineWords)
	var mu sync.Mutex
	got := map[Addr]int{}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				home := pid
				if i%8 == 3 {
					home = HomeNone
				}
				addr := a.Alloc(2, home)
				mu.Lock()
				for w := addr; w < addr+2; w++ {
					if prev, dup := got[w]; dup {
						t.Errorf("word %d allocated to both %d and %d", w, prev, pid)
					}
					got[w] = pid
				}
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
}

// TestPortsFillWholeLines: a port's fields are read on every
// instruction, and written by its process (a CountingPort's counters on
// every instruction), so a port must share no cache line with another
// process's port. Both port types fill whole lines, which the
// allocator's size classes keep line aligned, and every field a
// NativePort's inlined guard reads sits in its first line.
func TestPortsFillWholeLines(t *testing.T) {
	const lineBytes = LineWords * 8
	for name, size := range map[string]uintptr{
		"NativePort":   unsafe.Sizeof(NativePort{}),
		"CountingPort": unsafe.Sizeof(CountingPort{}),
	} {
		if size%lineBytes != 0 {
			t.Errorf("%s is %d bytes, not a whole number of %d-byte lines", name, size, lineBytes)
		}
	}
	var p NativePort
	for name, end := range map[string]uintptr{
		"words": unsafe.Offsetof(p.words) + unsafe.Sizeof(p.words),
		"bound": unsafe.Offsetof(p.bound) + unsafe.Sizeof(p.bound),
		"fail":  unsafe.Offsetof(p.fail) + unsafe.Sizeof(p.fail),
	} {
		if end > lineBytes {
			t.Errorf("NativePort.%s, read by the inlined guard, ends at byte %d, past the first line", name, end)
		}
	}
}
