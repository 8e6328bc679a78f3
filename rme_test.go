package rme

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rme/internal/memory"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := New(2, WithBase(Base(99))); err == nil {
		t.Fatal("expected error for unknown base")
	}
	// Map-only options are rejected by New rather than silently ignored.
	if _, err := New(2, WithShards(4)); err == nil {
		t.Fatal("expected error for WithShards on New")
	}
	if _, err := New(2, WithSegmentSlots(16)); err == nil {
		t.Fatal("expected error for WithSegmentSlots on New")
	}
}

func TestSequentialPassages(t *testing.T) {
	for _, base := range []Base{BaseTournament, BaseArbTree} {
		m, err := New(4, WithBase(base))
		if err != nil {
			t.Fatal(err)
		}
		if m.N() != 4 {
			t.Fatalf("N = %d", m.N())
		}
		count := 0
		for pid := 0; pid < 4; pid++ {
			for k := 0; k < 3; k++ {
				if !m.Passage(pid, func() { count++ }) {
					t.Fatalf("passage failed without injection (base %d)", base)
				}
			}
		}
		if count != 12 {
			t.Fatalf("count = %d, want 12", count)
		}
	}
}

func TestLockUnlockDirect(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	m.Lock(0)
	m.Unlock(0)
	m.Lock(1)
	m.Unlock(1)
}

func TestPidRangePanics(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range pid")
		}
	}()
	m.Lock(5)
}

func TestConcurrentMutualExclusion(t *testing.T) {
	const (
		n        = 8
		passages = 200
	)
	m, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	// The critical section mutates plain (non-atomic) shared state: the
	// race detector turns any mutual exclusion bug into a reported race,
	// and the final count checks lost updates.
	var counter int
	var inCS int32
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < passages; k++ {
				m.Lock(pid)
				if !atomic.CompareAndSwapInt32(&inCS, 0, 1) {
					t.Error("two processes in the critical section")
				}
				counter++
				atomic.StoreInt32(&inCS, 0)
				m.Unlock(pid)
			}
		}(pid)
	}
	wg.Wait()
	if counter != n*passages {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, n*passages)
	}
}

func TestConcurrentWithInjectedFailures(t *testing.T) {
	const (
		n        = 6
		passages = 120
	)
	var injected atomic.Int64
	// Per-process seeded RNGs keep the hook race-free (a pid is driven
	// by one goroutine at a time).
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 1))
	}
	fail := func(pid int) bool {
		if injected.Load() >= 25 {
			return false
		}
		if rngs[pid].Float64() < 0.002 {
			injected.Add(1)
			return true
		}
		return false
	}
	m, err := New(n, WithFailures(fail))
	if err != nil {
		t.Fatal(err)
	}
	var counter int
	var inCS int32
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < passages; k++ {
				for !m.Passage(pid, func() {
					if !atomic.CompareAndSwapInt32(&inCS, 0, 1) {
						t.Error("two processes in the critical section")
					}
					counter++
					atomic.StoreInt32(&inCS, 0)
				}) {
					// Crashed mid-acquisition: recover and retry, as the
					// paper's execution model prescribes.
				}
			}
		}(pid)
	}
	wg.Wait()
	// A crash between the critical section and the end of Exit re-runs
	// the (idempotent) CS on retry — the paper's super-passage semantics
	// — so the count may exceed the passage count by at most one per
	// failure, and must never fall short (no lost updates).
	inj := int(injected.Load())
	if counter < n*passages || counter > n*passages+inj {
		t.Fatalf("counter = %d, want in [%d, %d] (%d injected failures)",
			counter, n*passages, n*passages+inj, inj)
	}
	if inj == 0 {
		t.Skip("no failures injected; raise the rate to exercise recovery")
	}
}

// TestRaceStress hammers the NativeArena-backed Mutex with many
// processes, many passages, and a high crash rate. It exists to give the
// race detector (CI runs it with -race -count=2) a dense interleaving to
// chew on: every Port operation, recovery path, and failure hook fires
// thousands of times under real goroutine contention.
func TestRaceStress(t *testing.T) {
	n := 8
	passages := 400
	maxInjected := int64(300)
	if testing.Short() {
		passages = 60
		maxInjected = 40
	}
	var injected atomic.Int64
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 101))
	}
	fail := func(pid int) bool {
		if injected.Load() >= maxInjected {
			return false
		}
		if rngs[pid].Float64() < 0.01 {
			injected.Add(1)
			return true
		}
		return false
	}
	m, err := New(n, WithFailures(fail))
	if err != nil {
		t.Fatal(err)
	}
	var counter int
	var inCS int32
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < passages; k++ {
				for !m.Passage(pid, func() {
					if !atomic.CompareAndSwapInt32(&inCS, 0, 1) {
						t.Error("two processes in the critical section")
					}
					counter++
					atomic.StoreInt32(&inCS, 0)
				}) {
					// Crashed mid-acquisition: recover and retry.
				}
			}
		}(pid)
	}
	wg.Wait()
	inj := int(injected.Load())
	if counter < n*passages || counter > n*passages+inj {
		t.Fatalf("counter = %d, want in [%d, %d] (%d injected failures)",
			counter, n*passages, n*passages+inj, inj)
	}
	if inj == 0 {
		t.Fatal("no failures injected; the stress run must exercise recovery")
	}
}

func TestCrashInsideCriticalSection(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	attempt := 0
	for !m.Passage(0, func() {
		attempt++
		if attempt == 1 {
			Crash(0) // fail while holding the lock
		}
	}) {
	}
	if attempt != 2 {
		t.Fatalf("critical section ran %d times, want 2 (crash then re-entry)", attempt)
	}
	// The lock must be fully released afterwards: process 1 can acquire.
	if !m.Passage(1, func() {}) {
		t.Fatal("lock stuck after in-CS crash recovery")
	}
}

func TestFootprintBoundedWithReclamation(t *testing.T) {
	m, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Footprint()
	for k := 0; k < 300; k++ {
		pid := k % 4
		if !m.Passage(pid, func() {}) {
			t.Fatal("unexpected crash")
		}
	}
	if got := m.Footprint(); got != before {
		t.Fatalf("footprint grew from %d to %d despite reclamation", before, got)
	}
}

// TestLayoutFootprints pins the native layout's sizes: a Mutex's
// footprint and a Map region's size, in words, for both bases. Each
// arbitrator's three shared words fill one cache line. Every footprint
// also clears the 4n² floor Restore holds a snapshot's length to, since
// the node rings alone take n(5n+1) words per level.
func TestLayoutFootprints(t *testing.T) {
	for _, c := range []struct {
		base            Base
		n               int
		footprint, slot int
	}{
		{BaseTournament, 1, 40, 32},
		{BaseTournament, 2, 64, 56},
		{BaseTournament, 8, 1264, 1256},
		{BaseTournament, 64, 129120, 129112},
		{BaseArbTree, 1, 40, 32},
		{BaseArbTree, 2, 144, 136},
		{BaseArbTree, 8, 1216, 1208},
		{BaseArbTree, 64, 66768, 66760},
	} {
		m, err := New(c.n, WithBase(c.base))
		if err != nil {
			t.Fatal(err)
		}
		ma, err := NewMap(c.n, WithBase(c.base))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Footprint(); got != c.footprint {
			t.Errorf("base %v n=%d: Footprint() = %d, want %d", c.base, c.n, got, c.footprint)
		}
		if got := ma.SlotWords(); got != c.slot {
			t.Errorf("base %v n=%d: SlotWords() = %d, want %d", c.base, c.n, got, c.slot)
		}
		if floor := 4 * c.n * c.n; m.Footprint() < floor {
			t.Errorf("base %v n=%d: footprint %d below Restore's floor %d", c.base, c.n, m.Footprint(), floor)
		}
	}
}

// TestPowerOfTwoOptionsBounded: WithShards rounds up to a power of two,
// so a count above the largest power of two an int holds on every
// platform (1<<30) must come back as an error at once rather than spin a
// doubling counter through overflow forever.
func TestPowerOfTwoOptionsBounded(t *testing.T) {
	rejects := func(name string, build func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- build() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", name)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: still running after 3s", name)
		}
	}
	// math.MaxInt/2 + 2 is 1<<62+1 on 64-bit platforms.
	for _, k := range []int{1<<30 + 1, math.MaxInt/2 + 2} {
		rejects(fmt.Sprintf("NewMap shards %d", k), func() error { _, err := NewMap(2, WithShards(k)); return err })
	}
}

// TestPassageIgnoresForeignCrashSentinel is the regression test for the
// sentinel-swallowing bug: Passage must convert only its own process's
// crash sentinel into a false return. A Crash for a different PID raised
// inside the critical section (e.g. from a nested mutex's injection
// unwinding through this one) is not this passage's failure and must
// propagate as a panic, never be silently absorbed as "retry me".
func TestPassageIgnoresForeignCrashSentinel(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	// Own sentinel: converted to ok=false exactly once, then recovery.
	crashed := false
	for !m.Passage(0, func() {
		if !crashed {
			crashed = true
			Crash(0)
		}
	}) {
	}
	if !crashed {
		t.Fatal("own-pid crash never fired")
	}

	// Foreign sentinel: re-panics out of Passage.
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("Passage swallowed a foreign crash sentinel")
		}
		crash, ok := e.(memory.ErrCrash)
		if !ok || crash.PID != 1 {
			t.Fatalf("unexpected panic value %v", e)
		}
		// The swallowing bug would also have leaked the held lock; after
		// the propagated panic process 0's next passage must still work
		// (Recover releases or re-enters per BCSR).
		if !m.Passage(0, func() {}) {
			t.Fatal("lock unusable after foreign sentinel propagated")
		}
	}()
	m.Passage(0, func() { Crash(1) })
}
