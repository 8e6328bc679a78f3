package rme

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rme/internal/flight"
	"rme/internal/memory"
)

func TestNewMapValidation(t *testing.T) {
	if _, err := NewMap(0); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewMap(2, WithShards(-1)); err == nil {
		t.Fatal("expected error for negative shards")
	}
	if _, err := NewMap(2, WithSegmentSlots(-1)); err == nil {
		t.Fatal("expected error for negative segment slots")
	}
	if _, err := NewMap(2, WithBase(Base(99))); err == nil {
		t.Fatal("expected error for unknown base")
	}
	// Shard counts round up to a power of two.
	ma, err := NewMap(2, WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ma.shards); got != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", got)
	}
}

func TestMapBasic(t *testing.T) {
	ma, err := NewMap(4, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for i := 0; i < 10; i++ {
		for pid := 0; pid < 4; pid++ {
			key := "key-" + strconv.Itoa(pid%3)
			if !ma.Passage(pid, key, func() { count[key]++ }) {
				t.Fatal("passage failed without injection")
			}
		}
	}
	if count["key-0"]+count["key-1"]+count["key-2"] != 40 {
		t.Fatalf("counts = %v", count)
	}
	if ma.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ma.Len())
	}
	if ma.Footprint() <= 0 || ma.SlotWords() <= 0 {
		t.Fatalf("footprint=%d slotwords=%d", ma.Footprint(), ma.SlotWords())
	}
	s, ok := ma.MetricsSnapshot()
	if !ok || s.Passages != 40 {
		t.Fatalf("passages=%d ok=%v, want 40/true", s.Passages, ok)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: %+v", s)
	}
	st := ma.Stats()
	if st.Keys != 3 || st.Instantiated != 3 || st.SlotWords != ma.SlotWords() {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMapRegionOffsets: every key runs the one template lock, so each
// region's port offset must map the template's span — the lines after
// the sizer's null line — onto exactly the region. An offset one line
// off would put the template's last line in the next key's region.
func TestMapRegionOffsets(t *testing.T) {
	ma, err := NewMap(4, WithShards(1), WithSegmentSlots(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		ma.Passage(0, k, func() {})
	}
	for k, r := range ma.shards[0].entries {
		lo, hi := r.sub.Bounds()
		first, end := r.off+memory.LineWords, r.off+memory.LineWords+memory.Addr(ma.slotWords)
		if first != lo || end != hi {
			t.Errorf("key %q: offset %d maps the template onto [%d,%d), region is [%d,%d)", k, r.off, first, end, lo, hi)
		}
	}
}

// TestMapPerKeyIndependence: holding one key must not block passages on
// another.
func TestMapPerKeyIndependence(t *testing.T) {
	ma, err := NewMap(2)
	if err != nil {
		t.Fatal(err)
	}
	ma.Lock(0, "held")
	done := make(chan struct{})
	go func() {
		ma.Lock(1, "free")
		ma.Unlock(1, "free")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("passage on an unrelated key blocked behind a held key")
	}
	ma.Unlock(0, "held")
}

// TestMapMisuse pins the panic diagnostics for contract violations:
// nested passages and unlocking a key the process does not hold.
func TestMapMisuse(t *testing.T) {
	ma, err := NewMap(2)
	if err != nil {
		t.Fatal(err)
	}
	ma.Lock(0, "a")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nested Lock on a second key did not panic")
			}
		}()
		ma.Lock(0, "b")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unlock of an unheld key did not panic")
			}
		}()
		ma.Unlock(0, "b")
	}()
	ma.Unlock(0, "a")
}

// TestMapRaceStress runs concurrent passages over a small key set with
// eviction pressure from a background sweeper; the plain per-key
// counters make the race detector an exact mutual-exclusion check, and
// the atomic occupancy flags make overlap explicit even without -race.
func TestMapRaceStress(t *testing.T) {
	const (
		n        = 4
		keys     = 6
		passages = 250
	)
	ma, err := NewMap(n, WithShards(2), WithSegmentSlots(4), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]int, keys)
	var inCS [keys]atomic.Int32
	stop := make(chan struct{})
	var sweeps atomic.Int64
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sweeps.Add(int64(ma.EvictIdle(2)))
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)*271 + 1))
			for i := 0; i < passages; i++ {
				k := rng.Intn(keys)
				key := "key-" + strconv.Itoa(k)
				if !ma.Passage(pid, key, func() {
					if !inCS[k].CompareAndSwap(0, 1) {
						t.Errorf("two processes in key %d's critical section", k)
					}
					counters[k]++
					inCS[k].Store(0)
				}) {
					t.Errorf("passage failed without injection")
				}
			}
		}(pid)
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != n*passages {
		t.Fatalf("counted %d passages, want %d", total, n*passages)
	}
	s, _ := ma.MetricsSnapshot()
	if s.Passages != n*passages {
		t.Fatalf("recorder counted %d passages, want %d", s.Passages, n*passages)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: %+v", s)
	}
	t.Logf("sweeper evicted %d idle keys mid-run; stats=%+v", sweeps.Load(), ma.Stats())
}

// TestMapCrashEvictionPressure: a process crashes while holding a key,
// other keys churn hard enough to evict everything idle, and the
// crashed key's state must survive untouched for the recovery.
func TestMapCrashEvictionPressure(t *testing.T) {
	ma, err := NewMap(2, WithShards(1), WithSegmentSlots(2), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	if ma.Passage(0, "held", func() { held++; Crash(0) }) {
		t.Fatal("passage completed despite the injected crash")
	}
	// pid 0 crashed inside its CS: the key is pinned (engaged claim),
	// the lock is held in the region. Churn far more keys than the
	// shard's two slots; every instantiation beyond the first must
	// recycle an idle region, never the crashed key's.
	for i := 0; i < 50; i++ {
		if !ma.Passage(1, "churn-"+strconv.Itoa(i), func() {}) {
			t.Fatal("churn passage failed")
		}
	}
	st := ma.Stats()
	// "held" and churn-0 fill the two slots; churn-1..49 each evict.
	if st.Instantiated != 51 || st.Recycled != 49 || st.Evictions != 49 {
		t.Fatalf("instantiated/recycled/evictions = %d/%d/%d, want 51/49/49", st.Instantiated, st.Recycled, st.Evictions)
	}
	if st.Segments != 1 {
		t.Fatalf("footprint grew to %d segments with an evictable key set", st.Segments)
	}
	// Recovery: the same process re-enters (BCSR) and completes.
	if !ma.Passage(0, "held", func() { held++ }) {
		t.Fatal("recovery passage failed")
	}
	if held != 2 {
		t.Fatalf("critical section ran %d times, want 2 (crash + BCSR re-entry)", held)
	}
	s, _ := ma.MetricsSnapshot()
	if s.Crashes != 1 || s.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", s.Crashes, s.Recoveries)
	}
	// Now idle, the key is evictable like any other.
	if got := ma.EvictIdle(0); got < 1 {
		t.Fatalf("EvictIdle evicted %d keys, want at least the recovered one", got)
	}
	if ma.Len() != 0 {
		t.Fatalf("Len = %d after full eviction", ma.Len())
	}
}

// TestMapAbandonedClaimPinsKey: a process that crashed mid-acquisition
// on one key and moved on to another leaves a pending claim that pins
// the first key until it comes back and recovers.
func TestMapAbandonedClaimPinsKey(t *testing.T) {
	var arm atomic.Bool
	fail := func(pid int) bool { return pid == 0 && arm.CompareAndSwap(true, false) }
	ma, err := NewMap(2, WithShards(1), WithFailures(fail))
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	if ma.Passage(0, "a", func() {}) {
		t.Fatal("passage on a completed despite the injected crash")
	}
	// Crashed mid-acquisition on "a"; move on to "b".
	if !ma.Passage(0, "b", func() {}) {
		t.Fatal("passage on b failed")
	}
	// "b" is idle and evictable; "a" is pinned by the pending claim.
	ma.EvictIdle(0)
	if ma.Len() != 1 {
		t.Fatalf("Len = %d after eviction, want 1 (the pinned key)", ma.Len())
	}
	// Coming back to "a" recovers the claim; afterwards it evicts too.
	if !ma.Passage(0, "a", func() {}) {
		t.Fatal("recovery passage on a failed")
	}
	ma.EvictIdle(0)
	if ma.Len() != 0 {
		t.Fatalf("Len = %d after recovery and eviction, want 0", ma.Len())
	}
}

// TestMapEvictsLeastRecentlyUsedIdle pins the eviction order on one
// 4-slot shard: each miss on the full shard takes the idle key whose
// last acquisition is oldest, stepping over keys pinned by a crash
// inside the critical section or by a parked pending claim. A recovery
// that re-acquires a parked claim counts as a use; the crashed holder's
// recovery continues its engagement and does not.
func TestMapEvictsLeastRecentlyUsedIdle(t *testing.T) {
	var arm atomic.Bool
	fail := func(pid int) bool { return pid == 0 && arm.CompareAndSwap(true, false) }
	ma, err := NewMap(2, WithShards(1), WithSegmentSlots(4), WithFailures(fail))
	if err != nil {
		t.Fatal(err)
	}
	pass := func(pid int, key string) {
		t.Helper()
		if !ma.Passage(pid, key, func() {}) {
			t.Fatalf("pid %d: passage on %q failed", pid, key)
		}
	}
	live := func(want ...string) {
		t.Helper()
		got := make([]string, 0, len(ma.shards[0].entries))
		for k := range ma.shards[0].entries {
			got = append(got, k)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("live keys %v, want %v", got, want)
		}
	}

	for _, k := range []string{"a", "b", "c", "d", "a"} {
		pass(0, k)
	}
	pass(0, "e") // order b c d a: the re-touched a outlives b
	live("a", "c", "d", "e")

	// Pin c with a crash inside its critical section, and d with a crash
	// mid-acquisition that pid 0 parks as a pending claim on moving on.
	if ma.Passage(1, "c", func() { Crash(1) }) {
		t.Fatal("passage on c survived a crash inside the critical section")
	}
	arm.Store(true)
	if ma.Passage(0, "d", func() {}) {
		t.Fatal("passage on d survived the injected crash")
	}
	pass(0, "f") // order a e c* d*: a goes
	live("c", "d", "e", "f")
	pass(0, "g") // e c* d* f: e goes
	live("c", "d", "f", "g")
	pass(0, "h") // c* d* f g: f goes, both pins stepped over
	live("c", "d", "g", "h")
	pass(0, "i") // c* d* g h: g goes
	live("c", "d", "h", "i")

	pass(0, "d") // re-acquires the parked claim: order c h i d
	pass(1, "c") // BCSR re-entry, no new acquisition: c stays oldest
	pass(0, "j")
	live("d", "h", "i", "j")
	pass(0, "k")
	live("d", "i", "j", "k")
	pass(0, "l")
	live("d", "j", "k", "l")
	pass(0, "m") // d goes at its new last-use position
	live("j", "k", "l", "m")

	if got := ma.EvictIdle(1); got != 1 {
		t.Fatalf("EvictIdle(1) evicted %d keys", got)
	}
	live("k", "l", "m")
	if st := ma.Stats(); st.Instantiated != 13 || st.Evictions != 10 || st.Segments != 1 {
		t.Fatalf("instantiated/evictions/segments = %d/%d/%d, want 13/10/1", st.Instantiated, st.Evictions, st.Segments)
	}
}

// TestMapSweepAdversary2Keys sweeps an injected crash across pid 0's
// instruction stream on key "a" while pid 1 continuously runs passages
// on key "b": per-key mutual exclusion and BCSR must be independent —
// the adversary on one key never corrupts or starves the other.
func TestMapSweepAdversary2Keys(t *testing.T) {
	const rounds = 30
	var step, target, injected atomic.Int64
	var csRan, afterCS atomic.Bool // this round's CS has run; the crash fired after it
	fail := func(pid int) bool {
		if pid != 0 {
			return false
		}
		tg := target.Load()
		if tg > 0 && step.Add(1) == tg {
			injected.Add(1)
			afterCS.Store(csRan.Load())
			return true
		}
		return false
	}
	ma, err := NewMap(2, WithShards(1), WithFailures(fail), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var bCount atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !ma.Passage(1, "b", func() { bCount.Add(1) }) {
				t.Error("pid 1 crashed; injection targets only pid 0")
				return
			}
		}
	}()
	// On a single-core box the sweep below can finish before the
	// scheduler ever runs pid 1; insist on overlap first.
	for bCount.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	rerun := 0
	for k := int64(1); k <= rounds; k++ {
		step.Store(0)
		csRan.Store(false)
		afterCS.Store(false)
		target.Store(k)
		aCount := 0
		completed := false
		for try := 0; try < 1000 && !completed; try++ {
			completed = ma.Passage(0, "a", func() { aCount++; csRan.Store(true) })
		}
		target.Store(0)
		if !completed {
			t.Fatalf("crash at op %d wedged key a", k)
		}
		// The CS runs once, and once more when the crash fired after it
		// had run (in Exit): the retried passage runs it again.
		want := 1
		if afterCS.Load() {
			want++
			rerun++
		}
		if aCount != want {
			t.Fatalf("crash at op %d: key a's critical section ran %d times, want %d", k, aCount, want)
		}
	}
	close(stop)
	wg.Wait()
	if bCount.Load() == 0 {
		t.Fatal("pid 1 starved on key b during the sweep")
	}
	s, _ := ma.MetricsSnapshot()
	if s.Crashes != uint64(injected.Load()) {
		t.Fatalf("recorder counted %d crashes, injected %d", s.Crashes, injected.Load())
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: %+v", s)
	}
	t.Logf("swept %d crash points (%d fired, %d after the CS); b completed %d passages",
		rounds, injected.Load(), rerun, bCount.Load())
}

// TestMapChurnBoundedFootprint: touching an unbounded stream of
// distinct keys must not grow the arena footprint — reclaim recycles
// idle regions instead.
func TestMapChurnBoundedFootprint(t *testing.T) {
	const distinct = 400
	ma, err := NewMap(1, WithShards(1), WithSegmentSlots(4), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var after8 int
	for i := 0; i < distinct; i++ {
		if !ma.Passage(0, "churn-"+strconv.Itoa(i), func() {}) {
			t.Fatal("churn passage failed")
		}
		if i == 8 {
			after8 = ma.Footprint()
		}
	}
	st := ma.Stats()
	if got := ma.Footprint(); got != after8 {
		t.Fatalf("footprint grew from %d to %d words over %d distinct keys", after8, got, distinct)
	}
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
	// Four keys are carved, every later one recycles an evicted region.
	if st.Instantiated != distinct || st.Recycled != distinct-4 || st.Evictions != distinct-4 {
		t.Fatalf("instantiated/recycled/evictions = %d/%d/%d over %d distinct keys", st.Instantiated, st.Recycled, st.Evictions, distinct)
	}
	if got := st.FootprintWords; got >= distinct*ma.SlotWords() {
		t.Fatalf("footprint %d words not bounded (distinct keys would need %d)", got, distinct*ma.SlotWords())
	}
	s, _ := ma.MetricsSnapshot()
	if s.Passages != distinct {
		t.Fatalf("passages=%d, want %d", s.Passages, distinct)
	}
}

// TestMapRecycleMatchesFreshLock: a recycled region's lock costs exactly
// what a freshly built one costs. One region serves two alternating
// keys, so every passage after the first runs on the lock the other key
// left, zeroed and its addresses invalidated. The pinned histogram is
// what rebuilding the lock on every miss gives, and its cheapest passage
// is exactly a fresh Mutex's first.
func TestMapRecycleMatchesFreshLock(t *testing.T) {
	for _, base := range []Base{BaseTournament, BaseArbTree} {
		ma, err := NewMap(8, WithBase(base), WithShards(1), WithSegmentSlots(1), WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if !ma.Passage(i%8, [2]string{"a", "b"}[i%2], func() {}) {
				t.Fatalf("base %d: passage %d failed without injection", base, i)
			}
		}
		s, _ := ma.MetricsSnapshot()
		want := map[int]uint64{17: 7, 19: 43}
		for c, got := range s.RMRHist.Counts {
			if got != want[c] {
				t.Errorf("base %d: %d passages cost %d RMRs, want %d", base, got, c, want[c])
			}
		}
		if s.RMRs != 936 {
			t.Errorf("base %d: RMRs = %d, want 936", base, s.RMRs)
		}
		if st := ma.Stats(); st.Instantiated != 50 || st.Segments != 1 {
			t.Errorf("base %d: instantiated=%d segments=%d, want 50/1", base, st.Instantiated, st.Segments)
		}

		m, err := New(8, WithBase(base), WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		m.Passage(0, func() {})
		if ms, _ := m.MetricsSnapshot(); ms.RMRHist.Counts[17] != 1 {
			t.Errorf("base %d: a fresh Mutex's first passage is not 17 RMRs: %v", base, ms.RMRs)
		}
	}
}

// TestMapCarveAllocs: carving a region builds no lock, so a passage on
// a fresh key makes the same few allocations at every n — the region,
// its pending-claim slice and the sub-arena.
func TestMapCarveAllocs(t *testing.T) {
	const runs = 500
	keys := make([]string, runs+1) // AllocsPerRun warms up with one extra call
	for i := range keys {
		keys[i] = "carve-" + strconv.Itoa(i)
	}
	per := map[int]float64{}
	for _, n := range []int{2, 8} {
		ma, err := NewMap(n, WithShards(1), WithSegmentSlots(4096))
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		per[n] = testing.AllocsPerRun(runs, func() {
			if !ma.Passage(0, keys[next], func() {}) {
				t.Fatal("passage failed without injection")
			}
			next++
		})
		if st := ma.Stats(); st.Instantiated != runs+1 || st.Recycled != 0 || st.Segments != 1 {
			t.Fatalf("n=%d: instantiated/recycled/segments = %d/%d/%d, want %d carves in one segment",
				n, st.Instantiated, st.Recycled, st.Segments, runs+1)
		}
		if per[n] > 3 {
			t.Errorf("n=%d: %v allocations per carve, want at most 3", n, per[n])
		}
	}
	if per[2] != per[8] {
		t.Errorf("allocations per carve depend on n: %v at n=2, %v at n=8", per[2], per[8])
	}
}

// TestMapChurnCrashStress recycles regions from concurrent processes
// while crashes are injected at random instructions: 48 keys share one
// shard's four slots, so most requests evict an idle key, and every
// request retries its key until a passage completes. The plain per-key
// counters make the race detector an exact mutual-exclusion check (a
// region recycled under an engaged process races with its port
// accesses), and the atomic occupancy flags make overlap explicit even
// without -race.
func TestMapChurnCrashStress(t *testing.T) {
	const (
		n        = 4
		keys     = 48
		requests = 400 // per process
	)
	rngs := make([]*rand.Rand, n)
	for pid := range rngs {
		rngs[pid] = rand.New(rand.NewSource(int64(pid)*7919 + 3))
	}
	// Each process's draws come only from the goroutine acting as it.
	fail := func(pid int) bool { return rngs[pid].Intn(400) == 0 }
	ma, err := NewMap(n, WithShards(1), WithSegmentSlots(4), WithFailures(fail), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]int, keys)
	var inCS [keys]atomic.Int32
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)*271 + 5))
			for i := 0; i < requests; i++ {
				k := rng.Intn(keys)
				key, cs := "key-"+strconv.Itoa(k), func() {
					if !inCS[k].CompareAndSwap(0, 1) {
						t.Errorf("two processes in key %d's critical section", k)
					}
					counters[k]++
					inCS[k].Store(0)
				}
				for !ma.Passage(pid, key, cs) {
					// Crashed: retry the same key, which recovers the claim.
				}
			}
		}(pid)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	s, _ := ma.MetricsSnapshot()
	st := ma.Stats()
	if s.Passages != n*requests {
		t.Fatalf("recorder counted %d passages, want %d", s.Passages, n*requests)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: %+v", s)
	}
	// A crash after the critical section re-enters it on recovery (BCSR).
	if total < n*requests {
		t.Fatalf("critical sections ran %d times for %d requests", total, n*requests)
	}
	if s.Crashes == 0 || st.Evictions == 0 {
		t.Fatalf("no crashes (%d) or no evictions (%d): the test churned nothing", s.Crashes, st.Evictions)
	}
	t.Logf("crashes=%d evictions=%d segments=%d critical sections=%d", s.Crashes, st.Evictions, st.Segments, total)
}

// TestMapShardSnapshots: per-shard snapshots sum to the global one.
func TestMapShardSnapshots(t *testing.T) {
	ma, err := NewMap(2, WithShards(4), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := "k" + strconv.Itoa(i%7)
		if !ma.Passage(i%2, key, func() {}) {
			t.Fatal("passage failed")
		}
	}
	global, ok := ma.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics off")
	}
	shards, ok := ma.ShardMetricsSnapshots()
	if !ok || len(shards) != 4 {
		t.Fatalf("shard snapshots: ok=%v len=%d", ok, len(shards))
	}
	var passages, attempts, rmrs uint64
	for _, s := range shards {
		passages += s.Passages
		attempts += s.Attempts
		rmrs += s.RMRs
	}
	if passages != global.Passages || attempts != global.Attempts || rmrs != global.RMRs {
		t.Fatalf("shard sums (p=%d a=%d r=%d) != global (p=%d a=%d r=%d)",
			passages, attempts, rmrs, global.Passages, global.Attempts, global.RMRs)
	}
	if global.Passages != 20 {
		t.Fatalf("passages = %d, want 20", global.Passages)
	}
}

// TestMapAbortable covers the context paths on a Map: pre-cancellation,
// non-positive deadlines, expiry while queued, and late cancellation —
// each exactly one aborted attempt, mirroring the Mutex accounting.
func TestMapAbortable(t *testing.T) {
	ma, err := NewMap(2, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ma.LockCtx(ctx, 0, "k"); err != context.Canceled {
		t.Fatalf("pre-cancelled LockCtx = %v", err)
	}
	if ma.TryLockFor(0, "k", 0) {
		t.Fatal("TryLockFor(0) acquired")
	}
	ma.Lock(0, "k")
	if ma.TryLockFor(1, "k", 100*time.Microsecond) {
		t.Fatal("TryLockFor succeeded against a held key")
	}
	ma.Unlock(0, "k")
	if err := ma.LockCtx(&lateCancelCtx{}, 0, "k"); err != context.Canceled {
		t.Fatalf("late-cancelled LockCtx = %v", err)
	}
	// The back-outs left the key free for both processes.
	for pid := 0; pid < 2; pid++ {
		if !ma.Passage(pid, "k", func() {}) {
			t.Fatal("passage failed after back-outs")
		}
	}
	s, _ := ma.MetricsSnapshot()
	// 3 passages: the Lock/Unlock pair above plus the two loop passages.
	if s.Passages != 3 || s.Aborted != 4 {
		t.Fatalf("passages=%d aborted=%d, want 3/4", s.Passages, s.Aborted)
	}
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("identity broken: %+v", s)
	}
	if got := s.AbortRMRHist.Total(); got != s.Aborted {
		t.Fatalf("abort histogram holds %d samples, aborted=%d", got, s.Aborted)
	}

	// PassageCtx on a held key backs out with the deadline error.
	ma.Lock(0, "k")
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	ran := false
	ok, err := ma.PassageCtx(dctx, 1, "k", func() { ran = true })
	if ok || err != context.DeadlineExceeded || ran {
		t.Fatalf("PassageCtx = (%v, %v, ran=%v)", ok, err, ran)
	}
	ma.Unlock(0, "k")
}

// TestMapMutexParity drives a Mutex and a one-key Map through the same
// script — failure-free passages, a pre-cancelled and a late-cancelled
// LockCtx, a crash inside the critical section, then recovery — and
// requires identical metrics and identical per-process flight event
// kinds: both front ends run one passage engine, so a key's passages
// must be accounted exactly like a standalone mutex's.
func TestMapMutexParity(t *testing.T) {
	opts := []Option{WithMetrics(), WithTracing(TracingOptions{})}
	m, err := New(2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewMap(2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	type frontEnd struct {
		passage func(pid int, cs func()) bool
		lockCtx func(ctx context.Context, pid int) error
	}
	run := func(name string, f frontEnd) {
		for i := 0; i < 50; i++ {
			if !f.passage(i%2, func() {}) {
				t.Fatalf("%s: passage %d failed without injection", name, i)
			}
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := f.lockCtx(cancelled, 0); err != context.Canceled {
			t.Fatalf("%s: pre-cancelled LockCtx = %v, want context.Canceled", name, err)
		}
		if err := f.lockCtx(&lateCancelCtx{}, 1); err != context.Canceled {
			t.Fatalf("%s: late-cancelled LockCtx = %v, want context.Canceled", name, err)
		}
		if f.passage(0, func() { Crash(0) }) {
			t.Fatalf("%s: passage survived a crash inside the critical section", name)
		}
		if !f.passage(0, func() {}) {
			t.Fatalf("%s: recovery passage failed", name)
		}
	}
	run("Mutex", frontEnd{m.Passage, m.LockCtx})
	run("Map", frontEnd{
		passage: func(pid int, cs func()) bool { return ma.Passage(pid, "k", cs) },
		lockCtx: func(ctx context.Context, pid int) error { return ma.LockCtx(ctx, pid, "k") },
	})

	ms, _ := m.MetricsSnapshot()
	mas, _ := ma.MetricsSnapshot()
	if ms.Passages != 51 || ms.Aborted != 2 || ms.CrashedAttempts != 1 {
		t.Fatalf("Mutex passages/aborted/crashed = %d/%d/%d, want 51/2/1",
			ms.Passages, ms.Aborted, ms.CrashedAttempts)
	}
	if ms.Passages != mas.Passages || ms.Aborted != mas.Aborted ||
		ms.CrashedAttempts != mas.CrashedAttempts || ms.RMRs != mas.RMRs {
		t.Fatalf("passages/aborted/crashed/RMRs: Mutex %d/%d/%d/%d, Map %d/%d/%d/%d",
			ms.Passages, ms.Aborted, ms.CrashedAttempts, ms.RMRs,
			mas.Passages, mas.Aborted, mas.CrashedAttempts, mas.RMRs)
	}
	t.Logf("passages=%d aborted=%d crashed=%d rmrs=%d", ms.Passages, ms.Aborted, ms.CrashedAttempts, ms.RMRs)
	if !reflect.DeepEqual(ms.RMRHist, mas.RMRHist) {
		t.Fatalf("RMR histograms differ:\nMutex %+v\nMap   %+v", ms.RMRHist, mas.RMRHist)
	}

	mr, _ := m.FlightRecording()
	mar, _ := ma.FlightRecording()
	for pid := range mr.Procs {
		want, got := flightKinds(mr.Procs[pid]), flightKinds(mar.Procs[pid])
		if len(want) == 0 {
			t.Fatalf("pid %d: empty Mutex flight recording", pid)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("pid %d flight kinds differ:\nMutex %v\nMap   %v", pid, want, got)
		}
	}
}

func flightKinds(events []flight.Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.Kind.String()
	}
	return out
}
