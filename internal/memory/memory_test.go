package memory

import (
	"testing"
	"testing/quick"
)

func TestModelString(t *testing.T) {
	tests := []struct {
		m    Model
		want string
	}{
		{CC, "CC"},
		{DSM, "DSM"},
		{Model(9), "Model(9)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Model(%d).String() = %q, want %q", int(tt.m), got, tt.want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	tests := []struct {
		k    OpKind
		want string
	}{
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpFAS, "FAS"},
		{OpCAS, "CAS"},
		{OpKind(0), "OpKind(0)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("OpKind.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEncodingHelpers(t *testing.T) {
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Fatal("Bool encoding broken")
	}
	if !AsBool(1) || AsBool(0) {
		t.Fatal("AsBool decoding broken")
	}
	if AsAddr(FromAddr(42)) != 42 {
		t.Fatal("Addr round trip broken")
	}
	if AsAddr(FromAddr(Nil)) != Nil {
		t.Fatal("Nil round trip broken")
	}
}

func TestAllocReservesNull(t *testing.T) {
	a := NewArena(CC, 2)
	addr := a.Alloc(3, HomeNone)
	if addr == Nil {
		t.Fatal("Alloc returned the null address")
	}
	if addr != 1 {
		t.Fatalf("first Alloc = %d, want 1", addr)
	}
	if got := a.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

func TestAllocPanics(t *testing.T) {
	a := NewArena(CC, 2)
	mustPanic(t, "zero words", func() { a.Alloc(0, HomeNone) })
	mustPanic(t, "bad home", func() { a.Alloc(1, 7) })
	mustPanic(t, "bad home negative", func() { a.Alloc(1, -2) })
}

func TestInvalidAccessPanics(t *testing.T) {
	a := NewArena(CC, 1)
	p := a.Port(0, nil)
	mustPanic(t, "nil read", func() { p.Read(Nil) })
	mustPanic(t, "oob write", func() { p.Write(Addr(999), 1) })
	mustPanic(t, "bad pid", func() { a.Port(5, nil) })
	mustPanic(t, "bad model", func() { NewArena(Model(0), 1) })
	mustPanic(t, "bad n", func() { NewArena(CC, 0) })
}

func TestBasicReadWrite(t *testing.T) {
	for _, m := range []Model{CC, DSM} {
		a := NewArena(m, 2)
		x := a.Alloc(1, 0)
		p0 := a.Port(0, nil)
		p1 := a.Port(1, nil)

		if got := p0.Read(x); got != 0 {
			t.Fatalf("[%v] fresh word = %d, want 0", m, got)
		}
		p0.Write(x, 7)
		if got := p1.Read(x); got != 7 {
			t.Fatalf("[%v] read after write = %d, want 7", m, got)
		}
		if old := p1.FAS(x, 9); old != 7 {
			t.Fatalf("[%v] FAS returned %d, want 7", m, old)
		}
		if got := p0.Read(x); got != 9 {
			t.Fatalf("[%v] read after FAS = %d, want 9", m, got)
		}
		if p0.CAS(x, 8, 10) {
			t.Fatalf("[%v] CAS with wrong old succeeded", m)
		}
		if !p0.CAS(x, 9, 10) {
			t.Fatalf("[%v] CAS with right old failed", m)
		}
		if got := p1.Read(x); got != 10 {
			t.Fatalf("[%v] read after CAS = %d, want 10", m, got)
		}
	}
}

func TestDSMAccounting(t *testing.T) {
	a := NewArena(DSM, 3)
	local := a.Alloc(1, 1)  // owned by process 1
	remote := a.Alloc(1, 0) // owned by process 0
	shared := a.Alloc(1, HomeNone)
	p := a.Port(1, nil)

	p.Read(local)
	p.Write(local, 1)
	p.FAS(local, 2)
	p.CAS(local, 2, 3)
	if got := a.RMRs(1); got != 0 {
		t.Fatalf("local ops cost %d RMRs, want 0", got)
	}

	p.Read(remote)
	p.Write(remote, 1)
	p.Read(shared)
	if got := a.RMRs(1); got != 3 {
		t.Fatalf("remote ops cost %d RMRs, want 3", got)
	}
	if got := a.Ops(1); got != 7 {
		t.Fatalf("Ops = %d, want 7", got)
	}
}

func TestCCAccountingReadCaching(t *testing.T) {
	a := NewArena(CC, 2)
	x := a.Alloc(1, HomeNone)
	p0 := a.Port(0, nil)
	p1 := a.Port(1, nil)

	p0.Read(x) // miss
	p0.Read(x) // hit
	p0.Read(x) // hit
	if got := a.RMRs(0); got != 1 {
		t.Fatalf("read-spin cost %d RMRs, want 1", got)
	}

	p1.Write(x, 5) // invalidates p0's copy, costs p1 one RMR
	if got := a.RMRs(1); got != 1 {
		t.Fatalf("write cost %d RMRs, want 1", got)
	}

	p0.Read(x) // miss again after invalidation
	p0.Read(x) // hit
	if got := a.RMRs(0); got != 2 {
		t.Fatalf("read after invalidation cost %d total RMRs, want 2", got)
	}
}

func TestCCWriterRetainsCopy(t *testing.T) {
	a := NewArena(CC, 2)
	x := a.Alloc(1, HomeNone)
	p0 := a.Port(0, nil)

	p0.Write(x, 1)
	p0.Read(x) // writer's copy is still valid
	if got := a.RMRs(0); got != 1 {
		t.Fatalf("write+read cost %d RMRs, want 1", got)
	}
}

func TestCCRMWAlwaysRemote(t *testing.T) {
	a := NewArena(CC, 2)
	x := a.Alloc(1, HomeNone)
	p := a.Port(0, nil)
	p.Read(x)
	p.FAS(x, 1)
	p.CAS(x, 1, 2)
	p.CAS(x, 99, 3) // failed CAS still goes to memory
	if got := a.RMRs(0); got != 4 {
		t.Fatalf("RMW sequence cost %d RMRs, want 4", got)
	}
}

func TestCrashInvalidatesCache(t *testing.T) {
	a := NewArena(CC, 2)
	x := a.Alloc(1, HomeNone)
	p := a.Port(0, nil)
	p.Read(x)
	a.InvalidateCache(0)
	p.Read(x) // miss again: cache was lost in the crash
	if got := a.RMRs(0); got != 2 {
		t.Fatalf("RMRs = %d, want 2", got)
	}
}

func TestCrashInvalidateDSMNoop(t *testing.T) {
	a := NewArena(DSM, 2)
	x := a.Alloc(1, 0)
	a.InvalidateCache(0) // must not panic with nil cache structures
	p := a.Port(0, nil)
	p.Read(x)
	if got := a.RMRs(0); got != 0 {
		t.Fatalf("RMRs = %d, want 0", got)
	}
}

func TestCCManyProcesses(t *testing.T) {
	// Exercise the multi-word cache bitsets (n > 64).
	const n = 130
	a := NewArena(CC, n)
	x := a.Alloc(1, HomeNone)
	for pid := 0; pid < n; pid++ {
		p := a.Port(pid, nil)
		p.Read(x)
		p.Read(x)
		if got := a.RMRs(pid); got != 1 {
			t.Fatalf("process %d: RMRs = %d, want 1", pid, got)
		}
	}
	// One write invalidates all 130 cached copies.
	w := a.Port(0, nil)
	w.Write(x, 1)
	for pid := 1; pid < n; pid++ {
		p := a.Port(pid, nil)
		p.Read(x)
		if got := a.RMRs(pid); got != 2 {
			t.Fatalf("process %d after invalidation: RMRs = %d, want 2", pid, got)
		}
	}
}

func TestTotalRMRs(t *testing.T) {
	a := NewArena(DSM, 2)
	x := a.Alloc(1, 0)
	a.Port(0, nil).Read(x)
	a.Port(1, nil).Read(x)
	if got := a.TotalRMRs(); got != 1 {
		t.Fatalf("TotalRMRs = %d, want 1", got)
	}
}

func TestPeekAndHome(t *testing.T) {
	a := NewArena(DSM, 2)
	x := a.Alloc(1, 1)
	a.Port(0, nil).Write(x, 77)
	before := a.RMRs(0)
	if got := a.Peek(x); got != 77 {
		t.Fatalf("Peek = %d, want 77", got)
	}
	if got := a.RMRs(0); got != before {
		t.Fatal("Peek charged an RMR")
	}
	if got := a.Home(x); got != 1 {
		t.Fatalf("Home = %d, want 1", got)
	}
}

type recordingGate struct {
	steps []OpInfo
	pids  []int
}

func (g *recordingGate) Step(pid int, op OpInfo) {
	g.steps = append(g.steps, op)
	g.pids = append(g.pids, pid)
}

func TestGateSeesLabels(t *testing.T) {
	a := NewArena(CC, 1)
	x := a.Alloc(1, HomeNone)
	g := &recordingGate{}
	p := a.Port(0, g)

	p.Label("fas:tail")
	p.FAS(x, 1)
	p.Read(x) // label must not leak to the next op

	if len(g.steps) != 2 {
		t.Fatalf("gate saw %d steps, want 2", len(g.steps))
	}
	if g.steps[0].Label != "fas:tail" || g.steps[0].Kind != OpFAS {
		t.Fatalf("first step = %+v", g.steps[0])
	}
	if g.steps[1].Label != "" {
		t.Fatalf("label leaked to second op: %+v", g.steps[1])
	}
	if g.pids[0] != 0 {
		t.Fatalf("gate pid = %d, want 0", g.pids[0])
	}
}

func TestPortIdentity(t *testing.T) {
	a := NewArena(CC, 3)
	p := a.Port(2, nil)
	if p.PID() != 2 || p.N() != 3 {
		t.Fatalf("PID/N = %d/%d, want 2/3", p.PID(), p.N())
	}
	p.Pause() // must be a no-op
}

func TestFASCASSemanticsQuick(t *testing.T) {
	// Property: a FAS followed by a read observes the stored value, and a
	// CAS succeeds iff old matches, regardless of value patterns.
	f := func(v1, v2, v3 Word) bool {
		a := NewArena(DSM, 1)
		x := a.Alloc(1, 0)
		p := a.Port(0, nil)
		p.Write(x, v1)
		if p.FAS(x, v2) != v1 {
			return false
		}
		if ok := p.CAS(x, v2, v3); !ok {
			return false
		}
		if v3 != v2 {
			if p.CAS(x, v2, v1) {
				return false // stale old must fail
			}
		}
		return p.Read(x) == v3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocDisjointQuick(t *testing.T) {
	// Property: allocations never overlap and never return null.
	f := func(sizes []uint8) bool {
		a := NewArena(CC, 1)
		var end Addr = 1
		for _, s := range sizes {
			n := int(s%16) + 1
			got := a.Alloc(n, HomeNone)
			if got == Nil || got != end {
				return false
			}
			end += Addr(n)
		}
		return a.Size() == int(end)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNativeArenaBasics(t *testing.T) {
	a := NewNativeArena(2, 64)
	x := a.Alloc(2, HomeNone)
	p0 := a.Port(0, nil)
	p1 := a.Port(1, nil)

	p0.Write(x, 3)
	if got := p1.Read(x); got != 3 {
		t.Fatalf("read = %d, want 3", got)
	}
	if old := p1.FAS(x, 4); old != 3 {
		t.Fatalf("FAS = %d, want 3", old)
	}
	if !p0.CAS(x, 4, 5) || p0.CAS(x, 4, 6) {
		t.Fatal("CAS semantics broken")
	}
	if a.N() != 2 || p0.N() != 2 || p0.PID() != 0 {
		t.Fatal("identity accessors broken")
	}
	if got := a.Peek(x); got != 5 {
		t.Fatalf("Peek = %d, want 5", got)
	}
	p0.Pause()
}

func TestNativeArenaExhaustion(t *testing.T) {
	// Capacity rounds up to whole cache lines, line 0 is reserved, and
	// exhaustion panics rather than overlapping.
	a := NewNativeArena(1, 4)
	a.Alloc(LineWords, HomeNone) // consumes the one allocatable line
	mustPanic(t, "exhaustion", func() { a.Alloc(1, HomeNone) })
	mustPanic(t, "zero alloc", func() { a.Alloc(0, HomeNone) })
	mustPanic(t, "bad pid", func() { a.Port(1, nil) })
	mustPanic(t, "bad n", func() { NewNativeArena(0, 4) })
}

func TestNativeFailPoint(t *testing.T) {
	a := NewNativeArena(1, 16)
	x := a.Alloc(1, HomeNone)
	calls := 0
	p := a.Port(0, func(pid int, op OpInfo) bool {
		calls++
		return op.Label == "boom"
	})

	p.Write(x, 1) // no crash
	func() {
		defer func() {
			e := recover()
			crash, ok := e.(ErrCrash)
			if !ok {
				t.Fatalf("recovered %v, want ErrCrash", e)
			}
			if crash.PID != 0 || crash.Op.Label != "boom" {
				t.Fatalf("crash = %+v", crash)
			}
			if crash.Error() == "" {
				t.Fatal("empty error string")
			}
		}()
		p.Label("boom")
		p.Write(x, 2)
	}()
	if got := a.Peek(x); got != 1 {
		t.Fatalf("crashed write took effect: %d", got)
	}
	if calls != 2 {
		t.Fatalf("fail func called %d times, want 2", calls)
	}
}

func TestNativeInvalidAccess(t *testing.T) {
	a := NewNativeArena(1, 16)
	p := a.Port(0, nil)
	mustPanic(t, "nil", func() { p.Read(Nil) })
	mustPanic(t, "unallocated", func() { p.Read(Addr(9)) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
