package rme

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rme/internal/metrics"
)

func TestLockCtxAcquires(t *testing.T) {
	m, err := New(2, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LockCtx(context.Background(), 0); err != nil {
		t.Fatalf("LockCtx: %v", err)
	}
	m.Unlock(0)
	s, _ := m.MetricsSnapshot()
	if s.Passages != 1 || s.Aborted != 0 {
		t.Fatalf("passages=%d aborted=%d, want 1/0", s.Passages, s.Aborted)
	}
}

func TestLockCtxPreCancelled(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.LockCtx(ctx, 0); err != context.Canceled {
		t.Fatalf("LockCtx = %v, want context.Canceled", err)
	}
	// The lock was never touched: a plain acquisition must work.
	m.Lock(0)
	m.Unlock(0)
}

func TestLockCtxCancelWhileQueued(t *testing.T) {
	m, err := New(2, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	m.Lock(0)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.LockCtx(ctx, 1) }()
	// Give the waiter time to enqueue behind the holder, then cancel.
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("LockCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled LockCtx did not return (back-out stuck)")
	}
	m.Unlock(0)
	// The abandoned queue entry must not wedge later acquisitions by
	// either process.
	m.Lock(1)
	m.Unlock(1)
	m.Lock(0)
	m.Unlock(0)

	s, _ := m.MetricsSnapshot()
	if s.Aborted != 1 {
		t.Fatalf("aborted=%d, want 1", s.Aborted)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("attempts=%d != passages=%d + aborted=%d + crashed=%d",
			s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts)
	}
	if got := s.AbortRMRHist.Total(); got != 1 {
		t.Fatalf("abort RMR histogram holds %d samples, want 1", got)
	}
}

func TestLockCtxCancelAfterAcquire(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := m.LockCtx(ctx, 0); err != nil {
		t.Fatalf("LockCtx: %v", err)
	}
	// Cancelling after acquisition must not disturb the held lock...
	cancel()
	if m.TryLockFor(1, time.Millisecond) {
		t.Fatal("TryLockFor succeeded while the lock was held")
	}
	m.Unlock(0)
	// ...and must not leave a stale cancellation poll that kills pid 0's next
	// plain (non-abortable) acquisition.
	m.Lock(0)
	m.Unlock(0)
}

// lateCancelCtx is cancelled between LockCtx's entry check and its
// post-acquisition check: Err() returns nil the first time it is
// consulted and context.Canceled from then on, while Done() never fires
// (a nil channel blocks forever), so the acquisition itself never spins
// out. This deterministically drives the "cancelled in the instant
// between the last spin and holding the lock" path.
type lateCancelCtx struct {
	calls int
}

func (c *lateCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *lateCancelCtx) Done() <-chan struct{}       { return nil }
func (c *lateCancelCtx) Value(any) any               { return nil }
func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestLockCtxLateCancelAccounting is the regression test for the
// late-cancellation accounting bug: an attempt that acquires and then
// observes cancellation used to be recorded as a successful passage,
// with a phantom CS enter/exit pair in the flight recording. It must
// close as exactly one aborted attempt with no CS events, and the lock
// must actually be released.
func TestLockCtxLateCancelAccounting(t *testing.T) {
	m, err := New(2, WithMetrics(), WithTracing(TracingOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LockCtx(&lateCancelCtx{}, 0); err != context.Canceled {
		t.Fatalf("LockCtx = %v, want context.Canceled", err)
	}
	s, _ := m.MetricsSnapshot()
	if s.Attempts != 1 || s.Passages != 0 || s.Aborted != 1 {
		t.Fatalf("attempts=%d passages=%d aborted=%d, want 1/0/1",
			s.Attempts, s.Passages, s.Aborted)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: attempts=%d passages=%d aborted=%d crashed=%d",
			s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts)
	}
	if got := s.AbortRMRHist.Total(); got != 1 {
		t.Fatalf("abort RMR histogram holds %d samples, want 1", got)
	}
	rec, _ := m.FlightRecording()
	sawAbort := false
	for _, events := range rec.Procs {
		for _, ev := range events {
			switch ev.Kind.String() {
			case "cs-enter", "cs-exit":
				t.Fatalf("phantom %v event in flight recording of a cancelled attempt", ev.Kind)
			case "abort":
				sawAbort = true
			}
		}
	}
	if !sawAbort {
		t.Fatal("no abort event in the flight recording")
	}
	// The back-out really released the lock: another process acquires
	// immediately, and pid 0's next plain Lock is unaffected.
	if !m.TryLockFor(1, time.Second) {
		t.Fatal("lock still held after late-cancel back-out")
	}
	m.Unlock(1)
	m.Lock(0)
	m.Unlock(0)
	s, _ = m.MetricsSnapshot()
	if s.Passages != 2 || s.Aborted != 1 {
		t.Fatalf("passages=%d aborted=%d after recovery, want 2/1", s.Passages, s.Aborted)
	}
}

// TestTryLockForNonPositive is the regression test for the
// non-positive-deadline accounting bug: TryLockFor(pid, d<=0) used to
// return false without counting an attempt at all, skewing abort-rate
// denominators relative to deadlines that expire while queued. Both
// paths must now record exactly one aborted attempt per call.
func TestTryLockForNonPositive(t *testing.T) {
	m, err := New(2, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if m.TryLockFor(0, 0) {
		t.Fatal("TryLockFor(0) acquired")
	}
	if m.TryLockFor(0, -time.Second) {
		t.Fatal("TryLockFor(-1s) acquired")
	}
	s, _ := m.MetricsSnapshot()
	if s.Attempts != 2 || s.Passages != 0 || s.Aborted != 2 {
		t.Fatalf("attempts=%d passages=%d aborted=%d, want 2/0/2",
			s.Attempts, s.Passages, s.Aborted)
	}
	if got := s.AbortRMRHist.Total(); got != 2 {
		t.Fatalf("abort RMR histogram holds %d samples, want 2", got)
	}
	// The expired-while-queued path counts identically: one attempt,
	// one abort per call, so the two paths share a denominator.
	m.Lock(0)
	if m.TryLockFor(1, 100*time.Microsecond) {
		t.Fatal("TryLockFor succeeded against a held lock")
	}
	m.Unlock(0)
	s, _ = m.MetricsSnapshot()
	if s.Attempts != 4 || s.Passages != 1 || s.Aborted != 3 {
		t.Fatalf("attempts=%d passages=%d aborted=%d, want 4/1/3",
			s.Attempts, s.Passages, s.Aborted)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: attempts=%d passages=%d aborted=%d crashed=%d",
			s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts)
	}
}

func TestTryLockFor(t *testing.T) {
	m, err := New(2, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if !m.TryLockFor(0, time.Second) {
		t.Fatal("uncontended TryLockFor failed")
	}
	if m.TryLockFor(1, 100*time.Microsecond) {
		t.Fatal("TryLockFor succeeded against a held lock")
	}
	m.Unlock(0)
	if !m.TryLockFor(1, time.Second) {
		t.Fatal("TryLockFor failed after release")
	}
	m.Unlock(1)
	s, _ := m.MetricsSnapshot()
	if s.Passages != 2 || s.Aborted != 1 {
		t.Fatalf("passages=%d aborted=%d, want 2/1", s.Passages, s.Aborted)
	}
}

// TestAbortFreeWhenUnused pins abort support at zero RMRs on passages
// that do not abort: alone, a passage is one fixed instruction sequence,
// so acquiring through LockCtx under a live cancellable context or
// through TryLockFor under a deadline that never fires must give exactly
// the RMR histogram of plain Lock, on both bases.
func TestAbortFreeWhenUnused(t *testing.T) {
	const passages = 200
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acquires := []struct {
		name string
		lock func(m *Mutex) bool
	}{
		{"Lock", func(m *Mutex) bool { m.Lock(0); return true }},
		{"LockCtx", func(m *Mutex) bool { return m.LockCtx(ctx, 0) == nil }},
		{"TryLockFor", func(m *Mutex) bool { return m.TryLockFor(0, time.Hour) }},
	}
	for _, base := range []Base{BaseTournament, BaseArbTree} {
		var want metrics.Hist
		for _, a := range acquires {
			m, err := New(1, WithBase(base), WithMetrics())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < passages; i++ {
				if !a.lock(m) {
					t.Fatalf("base %d %s: passage %d did not acquire", base, a.name, i)
				}
				m.Unlock(0)
			}
			s, _ := m.MetricsSnapshot()
			if s.Passages != passages || s.Attempts != passages || s.Aborted != 0 {
				t.Fatalf("base %d %s: attempts=%d passages=%d aborted=%d, want %d/%d/0",
					base, a.name, s.Attempts, s.Passages, s.Aborted, passages, passages)
			}
			if want.Counts == nil {
				want = s.RMRHist
			} else if h := s.RMRHist; !slices.Equal(h.Counts, want.Counts) {
				t.Errorf("base %d %s: RMR histogram differs from Lock's: median %d, total %d RMRs; Lock: median %d, total %d RMRs",
					base, a.name, h.Quantile(0.5), h.Sum(), want.Quantile(0.5), want.Sum())
			}
		}
	}
}

func TestPassageCtxCancelled(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	m.Lock(0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	ran := false
	ok, err := m.PassageCtx(ctx, 1, func() { ran = true })
	if ok || err != context.DeadlineExceeded {
		t.Fatalf("PassageCtx = (%v, %v), want (false, DeadlineExceeded)", ok, err)
	}
	if ran {
		t.Fatal("critical section ran despite the abort")
	}
	m.Unlock(0)
}

func TestPassageCtxCrashReturnsFalseNil(t *testing.T) {
	var left atomic.Int64
	left.Store(1)
	fail := func(pid int) bool {
		return pid == 0 && left.Add(-1) == 0
	}
	m, err := New(2, WithFailures(fail), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	first := true
	for {
		ok, err := m.PassageCtx(context.Background(), 0, func() { count++ })
		if err != nil {
			t.Fatalf("PassageCtx error: %v", err)
		}
		if first && ok {
			t.Fatal("first attempt completed despite the injected crash")
		}
		first = false
		if ok {
			break
		}
	}
	s, _ := m.MetricsSnapshot()
	if s.Crashes != 1 || s.Passages != 1 {
		t.Fatalf("crashes=%d passages=%d, want 1/1", s.Crashes, s.Passages)
	}
}

// TestAbortCrashRecoverStress mixes deadline-bounded attempts, context
// cancellation and injected crashes under -race, then checks the exact
// metrics identities: every attempt is accounted for exactly once
// (completed, aborted, or crashed — never two of them), every injected
// crash is counted, and both abort histograms agree with the abort
// counter.
func TestAbortCrashRecoverStress(t *testing.T) {
	const (
		n        = 6
		passages = 120
		maxInj   = 30
	)
	var injected atomic.Int64
	// Per-process seeded RNGs keep the hook race-free (a pid is driven
	// by one goroutine at a time).
	failRngs := make([]*rand.Rand, n)
	for i := range failRngs {
		failRngs[i] = rand.New(rand.NewSource(int64(i) + 101))
	}
	fail := func(pid int) bool {
		if injected.Load() >= maxInj {
			return false
		}
		if failRngs[pid].Float64() < 0.001 {
			injected.Add(1)
			return true
		}
		return false
	}
	m, err := New(n, WithFailures(fail), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}

	var counter int // plain shared state: -race catches CS overlap
	var inCS int32
	// Caller-visible outcome counts, one per Passage/PassageCtx call:
	// together they partition the attempts the recorder saw.
	var calls, completed, deadlined, crashed atomic.Uint64
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)*7919 + 1))
			cs := func() {
				if !atomic.CompareAndSwapInt32(&inCS, 0, 1) {
					t.Error("two processes in the critical section")
				}
				counter++
				atomic.StoreInt32(&inCS, 0)
			}
			for k := 0; k < passages; k++ {
				for {
					if rng.Float64() < 0.3 {
						// Deadline-bounded attempt; expiry while queued
						// backs out and the iteration retries.
						d := time.Duration(1+rng.Intn(15)) * time.Microsecond
						ctx, cancel := context.WithTimeout(context.Background(), d)
						calls.Add(1)
						ok, err := m.PassageCtx(ctx, pid, cs)
						cancel()
						if ok {
							completed.Add(1)
							break
						}
						switch err {
						case context.DeadlineExceeded:
							deadlined.Add(1)
						case nil:
							crashed.Add(1)
						default:
							t.Errorf("pid %d: PassageCtx error %v", pid, err)
							return
						}
						continue // aborted or crashed: retry
					}
					calls.Add(1)
					if m.Passage(pid, cs) {
						completed.Add(1)
						break
					}
					crashed.Add(1)
				}
			}
		}(pid)
	}
	wg.Wait()

	if got := completed.Load(); got != n*passages {
		t.Fatalf("completed %d passages, want %d", got, n*passages)
	}
	// The CS counter may exceed the passage count by at most the injected
	// crash count (a crash after the CS but before Exit completes reruns
	// the passage), and must never fall short of it.
	inj := injected.Load()
	if int64(counter) < n*passages || int64(counter) > n*passages+inj {
		t.Fatalf("counter = %d, want in [%d, %d]", counter, n*passages, int64(n*passages)+inj)
	}

	s, ok := m.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics not enabled")
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("attempts=%d != passages=%d + aborted=%d + crashed=%d",
			s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts)
	}
	// Every Passage/PassageCtx call opens exactly one attempt, and each
	// closes under exactly one outcome — including pre-expired deadlines
	// (counted as aborted without touching the lock) and cancellations
	// observed at the post-acquisition check (aborted, never a passage).
	if s.Attempts != calls.Load() {
		t.Fatalf("recorder counted %d attempts, made %d calls", s.Attempts, calls.Load())
	}
	if s.CrashedAttempts != crashed.Load() {
		t.Fatalf("recorder counted %d crashed attempts, callers saw %d", s.CrashedAttempts, crashed.Load())
	}
	// Recorder passages are exactly the caller-visible completions, and
	// every deadline failure — pre-expired, backed out mid-spin, or a
	// late cancel after winning the acquisition — is one aborted attempt.
	if s.Passages != completed.Load() {
		t.Fatalf("recorder counted %d passages, callers completed %d", s.Passages, completed.Load())
	}
	if s.Aborted != deadlined.Load() {
		t.Fatalf("aborted=%d != deadline failures %d", s.Aborted, deadlined.Load())
	}
	if s.Crashes != uint64(inj) {
		t.Fatalf("recorder counted %d crashes, injected %d", s.Crashes, inj)
	}
	if got := s.AbortRMRHist.Total(); got != s.Aborted {
		t.Fatalf("abort RMR histogram holds %d samples, aborted=%d", got, s.Aborted)
	}
	var abandoned uint64
	for _, v := range s.AbandonedHist {
		abandoned += v
	}
	if abandoned != s.Aborted {
		t.Fatalf("abandoned-level histogram sums to %d, aborted=%d", abandoned, s.Aborted)
	}
	if got := s.RMRHist.Total(); got != s.Passages {
		t.Fatalf("per-passage RMR histogram holds %d samples, passages=%d", got, s.Passages)
	}
	t.Logf("attempts=%d passages=%d aborted=%d crashed=%d crashes=%d",
		s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts, s.Crashes)
}

// TestPassageCtxLeavesDoneUnallocated: an uncontended passage never
// pauses, so PassageCtx never asks its context for the Done channel,
// which a cancellable context allocates on the first call and cancel
// then closes. Under a fresh WithTimeout context that never fires, the
// passage adds no allocation to creating and cancelling the context.
func TestPassageCtxLeavesDoneUnallocated(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewMap(2)
	if err != nil {
		t.Fatal(err)
	}
	cs := func() {}
	ma.Passage(0, "live", cs) // instantiate the key up front
	withTimeout := func(passage func(ctx context.Context)) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			passage(ctx)
			cancel()
		}
	}
	bare := testing.AllocsPerRun(200, withTimeout(func(context.Context) {}))
	for _, c := range []struct {
		name    string
		passage func(ctx context.Context)
	}{
		{"Mutex.PassageCtx", func(ctx context.Context) { m.PassageCtx(ctx, 0, cs) }},
		{"Map.PassageCtx", func(ctx context.Context) { ma.PassageCtx(ctx, 0, "live", cs) }},
	} {
		if got := testing.AllocsPerRun(200, withTimeout(c.passage)); got != bare {
			t.Errorf("%s: %v allocs with the context, want %v, the context's own", c.name, got, bare)
		}
	}
}

// TestPassageZeroAllocs pins the passage driver at zero heap allocations
// per call — including an abortable passage under a context that never
// fires, whose cancellation poll reads ctx.Done() on the acquiring
// goroutine, and a Map miss, which rebinds a recycled region and its
// already-built lock to the new key, on a one-slot shard and on a full
// default-size one.
func TestPassageZeroAllocs(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewMap(2)
	if err != nil {
		t.Fatal(err)
	}
	// One region for two alternating keys: every call evicts the other.
	churn, err := NewMap(2, WithShards(1), WithSegmentSlots(1))
	if err != nil {
		t.Fatal(err)
	}
	// 65 keys cycled over a default 64-slot shard: every call evicts the
	// least recently used of 64 live keys.
	full, err := NewMap(2, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	fullKeys := make([]string, 65)
	for i := range fullKeys {
		fullKeys[i] = "full-" + strconv.Itoa(i)
	}
	ctx, cs := context.Background(), func() {}
	ma.Passage(0, "live", cs) // instantiate the key up front
	keys, turn := [2]string{"a", "b"}, 0
	churn.Passage(0, keys[turn], cs) // carve the region up front
	for _, k := range fullKeys {
		full.Passage(0, k, cs) // carve 64 regions and evict once
	}
	next := len(fullKeys) - 1
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Mutex.Passage", func() { m.Passage(0, cs) }},
		{"Mutex.Lock+Unlock", func() { m.Lock(0); m.Unlock(0) }},
		{"Mutex.PassageCtx", func() { m.PassageCtx(ctx, 0, cs) }},
		{"Map.Passage", func() { ma.Passage(0, "live", cs) }},
		{"Map.PassageCtx", func() { ma.PassageCtx(ctx, 0, "live", cs) }},
		{"Map.Passage (miss)", func() { turn ^= 1; churn.Passage(0, keys[turn], cs) }},
		{"Map.Passage (miss, full shard)", func() { next = (next + 1) % len(fullKeys); full.Passage(0, fullKeys[next], cs) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, got)
		}
	}
	if st := churn.Stats(); st.Evictions != st.Instantiated-1 || st.Segments != 1 {
		t.Fatalf("miss case did not rebind one region: %+v", st)
	}
	if st := full.Stats(); st.Evictions != st.Instantiated-64 || st.Keys != 64 || st.Segments != 1 {
		t.Fatalf("full-shard miss case did not evict on every call: %+v", st)
	}
}
