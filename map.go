package rme

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rme/internal/core"
	"rme/internal/flight"
	"rme/internal/memory"
	"rme/internal/metrics"
)

// Map is a keyed lock manager: a dynamic set of named recoverable
// mutexes for n processes, instantiated lazily and recycled as keys
// churn. Each key gets the state of its own full BA-Lock — the same
// algorithm a Mutex wraps — in a region carved from a shard's arena
// segment, so per-key locks keep the cache-line padding and
// deterministic NativeSizer-measured layout of a standalone Mutex.
//
// The Map builds one BA-Lock object, at NewMap, at a template layout.
// A lock object holds only addresses, and a region holds the template's
// words shifted by a constant, so every key runs that one object: a
// process reaches its key's region through a port whose offset shifts
// each template address into the region. Fail hooks and
// ErrCrash.Op.Addr therefore see region-relative (template) addresses.
//
// Keys hash over a power-of-two number of shards. A shard's mutex
// serializes only key-table bookkeeping (lookup, instantiation,
// eviction); passages themselves run lock-free through the region's
// ports, so contention on distinct keys never interacts.
//
// Key lifecycle: a key is instantiated on first acquisition, stays live
// while any process is engaged with it (acquiring, holding, or crashed
// mid-passage on it), and becomes evictable when idle. When a shard
// needs a region for a new key it reuses a recycled one, carves a fresh
// one from the current segment, or evicts the least-recently-used idle
// key — growing a new segment only when every live key is pinned. A
// region is recycled only at quiescence (no engaged process, no pending
// crashed claim), by zeroing it, which leaves it a freshly built lock
// for the next key. A process that crashed while holding or queued on a
// key therefore always finds its lock state intact when it recovers, no
// matter how many other keys churned in between.
//
// Process identifiers are 0..n-1 across the whole Map: at any moment at
// most one goroutine may act as a given process, and a process runs at
// most one passage (over all keys) at a time. A process that crashed
// mid-acquisition on one key may move on to other keys — the abandoned
// claim pins the old key until the process comes back and recovers it —
// but crashing inside a critical section requires recovering the same
// key first (bounded critical-section re-entry is per key).
type Map struct {
	eng       engine
	n         int
	cfg       config
	lock      *core.BALock // every region's lock, at the template layout
	slotLines int          // region length of one per-key lock, in cache lines
	slotWords int
	segSlots  int
	shards    []*mapShard
	mask      uint32
}

// mapShard owns one slice of the key space: its key table, the last-use
// list of its live keys, its arena segments, and its free list of
// recycled regions. All fields are guarded by mu except the segments'
// arenas themselves, which passages access through ports without
// locking.
type mapShard struct {
	m  *Map
	mu sync.Mutex

	entries map[string]*region
	// lru heads the circular last-use list of the live keys' regions:
	// lru.next is the least recently acquired, lru.prev the most. It is
	// a sentinel; only its links are used.
	lru      region
	segments []*mapSegment
	free     []*region

	instantiated uint64 // keys bound to a region (fresh or recycled)
	recycled     uint64 // bindings that reused a recycled region
	evictions    uint64 // idle keys evicted
}

// mapSegment is one fixed-capacity arena a shard carves per-key regions
// from, with its own metrics recorder (per-key RMR accounting needs a
// version table covering the segment) and lazily created per-process
// ports, each shifted onto the region its process is engaged with.
type mapSegment struct {
	arena  *memory.NativeArena
	rec    *metrics.Recorder // nil unless WithMetrics
	ports  []shiftPort
	carved int
}

// region is one carved region, fixed for life, and the lifecycle of the
// key last bound to it (guarded by the owning shard's mu).
type region struct {
	shard *mapShard
	seg   *mapSegment
	sub   *memory.SubArena
	off   memory.Addr // port offset putting the template's line 1 on the region's first line

	key        string
	refs       int    // processes engaged (procs[pid].e == this)
	pending    []bool // pending[pid]: crashed claim abandoned by pid
	npending   int
	prev, next *region // the shard's last-use list, while bound to key
}

// unlink takes r off its shard's last-use list.
func (r *region) unlink() { r.prev.next, r.next.prev = r.next, r.prev }

// NewMap creates a keyed lock manager for n processes.
//
// Map-specific options are WithShards and WithSegmentSlots; the lock
// recipe options (WithBase, WithLevels), failure injection, WithMetrics
// and WithTracing apply to every per-key lock. WithoutReclamation,
// WithSlack and WithCapacity do not apply to maps and are rejected:
// per-key locks must pool their queue nodes or a long-lived key's region
// would exhaust, and regions are sized exactly. WithShards above 1<<30
// and a TracingOptions.RingSize above 1<<30 are rejected too.
func NewMap(n int, opts ...Option) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("rme: NewMap(%d): need at least one process", n)
	}
	cfg := config{base: BaseTournament, reclamation: true}
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case !cfg.reclamation:
		return nil, fmt.Errorf("rme: NewMap does not support WithoutReclamation (per-key locks must pool queue nodes)")
	case cfg.slack != 0 || cfg.capacity != 0:
		return nil, fmt.Errorf("rme: NewMap does not support WithSlack/WithCapacity (regions are sized exactly)")
	case cfg.shards < 0:
		return nil, fmt.Errorf("rme: negative shard count %d", cfg.shards)
	case cfg.shards > maxShards:
		return nil, fmt.Errorf("rme: shard count %d exceeds %d", cfg.shards, maxShards)
	case cfg.tracingOpts.RingSize > flight.MaxRingSize:
		return nil, fmt.Errorf("rme: ring size %d exceeds %d", cfg.tracingOpts.RingSize, flight.MaxRingSize)
	case cfg.segSlots < 0:
		return nil, fmt.Errorf("rme: negative segment slot count %d", cfg.segSlots)
	}
	if cfg.shards == 0 {
		cfg.shards = 8
	}
	shards := 1
	for shards < cfg.shards {
		shards <<= 1
	}
	if cfg.segSlots == 0 {
		cfg.segSlots = 64
	}
	spec, err := cfg.lockSpec(n)
	if err != nil {
		return nil, err
	}
	cfg.levels = spec.Levels

	// Build the one lock at its template layout. Its words occupy the
	// sizer's lines after the reserved null line, so that is the line
	// count every region is carved with.
	szr := memory.NewNativeSizer(n, true)
	lock := spec.Build(szr, n)
	slotLines := szr.Lines() - 1

	ma := &Map{
		eng:       newEngine(n, &cfg),
		n:         n,
		cfg:       cfg,
		lock:      lock,
		slotLines: slotLines,
		slotWords: slotLines * memory.LineWords,
		segSlots:  cfg.segSlots,
		shards:    make([]*mapShard, shards),
		mask:      uint32(shards - 1),
	}
	ma.eng.keys = ma
	ma.eng.watch(lock)
	for i := range ma.shards {
		sh := &mapShard{m: ma, entries: make(map[string]*region)}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		ma.shards[i] = sh
	}
	return ma, nil
}

// N returns the number of processes.
func (ma *Map) N() int { return ma.n }

// SlotWords returns the region footprint of one per-key lock, in words.
func (ma *Map) SlotWords() int { return ma.slotWords }

// shardOf hashes key (FNV-1a) onto its shard.
func (ma *Map) shardOf(key string) *mapShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return ma.shards[h&ma.mask]
}

// newSegment builds one arena segment: the null line plus segSlots
// regions' worth of capacity.
func (ma *Map) newSegment() *mapSegment {
	capacity := (1 + ma.segSlots*ma.slotLines) * memory.LineWords
	sg := &mapSegment{
		arena: memory.NewNativeArena(ma.n, capacity),
		ports: make([]shiftPort, ma.n),
	}
	if ma.cfg.metrics {
		sg.rec = metrics.NewRecorder(ma.n, ma.cfg.levels+1, sg.arena.Capacity())
	}
	return sg
}

// ensurePort lazily creates process pid's port onto the segment, wired
// exactly like a Mutex port. Called under the owning shard's mu, from
// the goroutine acting as pid.
func (sg *mapSegment) ensurePort(ma *Map, pid int) {
	if sg.ports[pid] == nil {
		sg.ports[pid] = ma.eng.port(sg.arena, pid, sg.rec)
	}
}

// slotFor hands out a region for a new key, in footprint order: a
// recycled region first, then an uncarved slot in the current segment,
// then the region of an evicted idle key, and only when every live key
// is pinned a fresh segment. Called under mu.
func (sh *mapShard) slotFor() *region {
	if k := len(sh.free); k > 0 {
		r := sh.free[k-1]
		sh.free = sh.free[:k-1]
		sh.recycled++
		return r
	}
	if k := len(sh.segments); k == 0 || sh.segments[k-1].carved == sh.m.segSlots {
		if r := sh.evictLocked(); r != nil {
			sh.recycled++
			return r
		}
		sh.segments = append(sh.segments, sh.m.newSegment())
	}
	ma, sg := sh.m, sh.segments[len(sh.segments)-1]
	sg.carved++
	sub := sg.arena.Carve(ma.slotLines)
	lo, _ := sub.Bounds()
	return &region{shard: sh, seg: sg, sub: sub, off: lo - memory.LineWords, pending: make([]bool, ma.n)}
}

// evictLocked evicts the least-recently-used idle key (no engaged
// process, no pending crashed claim) and recycles its region, or returns
// nil when every key is pinned. It walks the last-use list from its
// least recent end, so it steps over only the pinned keys used before
// the victim. Recycling zeroes the region, which returns it to the
// just-built state (the construction stored nothing), and with metrics
// on marks the region's addresses as new memory, so no process's CC
// cache survives into the next key's lock. mu, which every engagement
// takes to start and to end, orders the zeroing against every port
// access.
func (sh *mapShard) evictLocked() *region {
	victim := sh.lru.next
	for victim != &sh.lru && (victim.refs > 0 || victim.npending > 0) {
		victim = victim.next
	}
	if victim == &sh.lru {
		return nil
	}
	victim.unlink()
	delete(sh.entries, victim.key)
	sh.evictions++
	victim.sub.Reset()
	if rec := victim.seg.rec; rec != nil {
		rec.InvalidateRange(victim.sub.Bounds())
	}
	return victim
}

// acquire looks up key's region, binding the key to one on a miss, and
// engages pid with it. The region moves to the most recent end of the
// last-use list, or is linked there when newly bound.
func (sh *mapShard) acquire(pid int, key string) *region {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.entries[key]
	if r == nil {
		r = sh.slotFor()
		r.key = key
		sh.entries[key] = r
		sh.instantiated++
	} else {
		r.unlink()
	}
	r.prev, r.next = sh.lru.prev, &sh.lru
	r.prev.next, sh.lru.prev = r, r
	if r.pending[pid] {
		r.pending[pid] = false
		r.npending--
	}
	r.refs++
	r.seg.ensurePort(sh.m, pid)
	return r
}

// begin binds pid's passage state to key's lock: a recovery continues
// the existing engagement; a crashed claim on a different key is parked
// as pending (pinning that key's region) before the new key is engaged.
func (ma *Map) begin(pid int, key string) {
	s := &ma.eng.procs[pid]
	if s.e != nil {
		if s.e.key == key {
			return
		}
		if s.inCS {
			panic(fmt.Sprintf("rme: process %d holds key %q; nested Map passages are not supported", pid, s.e.key))
		}
		old := s.e
		sh := old.shard
		sh.mu.Lock()
		if !old.pending[pid] {
			old.pending[pid] = true
			old.npending++
		}
		old.refs--
		sh.mu.Unlock()
		s.e = nil
	}
	r := ma.shardOf(key).acquire(pid, key)
	port := r.seg.ports[pid]
	port.SetOffset(r.off)
	s.e, s.lock, s.port, s.rec = r, ma.lock, port, r.seg.rec
}

// finish releases pid's engagement after a clean passage end or a
// completed back-out.
func (ma *Map) finish(pid int) {
	s := &ma.eng.procs[pid]
	sh := s.e.shard
	sh.mu.Lock()
	s.e.refs--
	sh.mu.Unlock()
	*s = proc{}
}

// Lock acquires key's lock as process pid, instantiating the key if
// needed. Like Mutex.Lock it is the correct call both for first
// acquisition and for recovery after a failure on the same key.
func (ma *Map) Lock(pid int, key string) { ma.eng.lock(context.Background(), pid, key) }

// Unlock releases key's lock as process pid.
func (ma *Map) Unlock(pid int, key string) {
	if s := ma.eng.proc(pid); s.e == nil || s.e.key != key {
		held := "nothing"
		if s.e != nil {
			held = fmt.Sprintf("%q", s.e.key)
		}
		panic(fmt.Sprintf("rme: process %d unlocking key %q but holds %s", pid, key, held))
	}
	ma.eng.unlock(pid)
}

// Passage runs one passage on key: Recover, Enter, cs, Exit. It reports
// false if an injected failure interrupted the passage, in which case
// the caller should retry with the same key (the crashed claim keeps
// the key pinned until recovered).
func (ma *Map) Passage(pid int, key string, cs func()) (ok bool) {
	ok, _ = ma.eng.passage(context.Background(), pid, key, cs)
	return ok
}

// LockCtx acquires key's lock as process pid, giving up when ctx is
// cancelled, with exactly Mutex.LockCtx's semantics and accounting:
// every cancelled attempt — pre-cancelled, mid-spin, or at the
// post-acquisition check — closes as one aborted attempt, never as a
// passage, and the process then holds nothing on the key.
func (ma *Map) LockCtx(ctx context.Context, pid int, key string) error {
	return ma.eng.lock(ctx, pid, key)
}

// TryLockFor acquires key's lock as process pid, giving up after d; a
// non-positive d counts one aborted attempt without touching the lock,
// exactly like Mutex.TryLockFor.
func (ma *Map) TryLockFor(pid int, key string, d time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return ma.LockCtx(ctx, pid, key) == nil
}

// PassageCtx runs one abortable passage on key; semantics follow
// Mutex.PassageCtx (ok=false with nil error on an injected crash,
// (false, ctx.Err()) on cancellation).
func (ma *Map) PassageCtx(ctx context.Context, pid int, key string, cs func()) (ok bool, err error) {
	return ma.eng.passage(ctx, pid, key, cs)
}

// EvictIdle evicts up to max idle keys map-wide (all of them when max
// <= 0), recycling their regions onto the shards' free lists. Keys with
// an engaged process or a pending crashed claim are never touched. It
// returns the number evicted. Passages may run concurrently.
func (ma *Map) EvictIdle(max int) int {
	evicted := 0
	for _, sh := range ma.shards {
		sh.mu.Lock()
		for max <= 0 || evicted < max {
			r := sh.evictLocked()
			if r == nil {
				break
			}
			sh.free = append(sh.free, r)
			evicted++
		}
		sh.mu.Unlock()
		if max > 0 && evicted >= max {
			break
		}
	}
	return evicted
}

// Len returns the number of live keys.
func (ma *Map) Len() int {
	total := 0
	for _, sh := range ma.shards {
		sh.mu.Lock()
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}

// Footprint returns the Map's physical shared-memory footprint in
// words: the full capacity of every arena segment. It grows only when a
// shard runs out of recyclable regions, never with the total number of
// distinct keys touched.
func (ma *Map) Footprint() int {
	total := 0
	for _, sh := range ma.shards {
		sh.mu.Lock()
		for _, sg := range sh.segments {
			total += sg.arena.Capacity()
		}
		sh.mu.Unlock()
	}
	return total
}

// MapShardStats is one shard's lifecycle accounting.
type MapShardStats struct {
	Keys         int    // live keys
	Segments     int    // arena segments
	Free         int    // recycled regions awaiting reuse
	Instantiated uint64 // keys bound to a region (fresh or recycled)
	Recycled     uint64 // bindings that reused a recycled region
	Evictions    uint64 // idle keys evicted
}

// MapStats aggregates the Map's lifecycle accounting.
type MapStats struct {
	Keys           int
	Segments       int
	FootprintWords int
	SlotWords      int
	Instantiated   uint64
	Recycled       uint64
	Evictions      uint64
	Shards         []MapShardStats
}

// Stats returns the Map's current lifecycle statistics.
func (ma *Map) Stats() MapStats {
	s := MapStats{SlotWords: ma.slotWords, Shards: make([]MapShardStats, len(ma.shards))}
	for i, sh := range ma.shards {
		sh.mu.Lock()
		ss := MapShardStats{
			Keys:         len(sh.entries),
			Segments:     len(sh.segments),
			Free:         len(sh.free),
			Instantiated: sh.instantiated,
			Recycled:     sh.recycled,
			Evictions:    sh.evictions,
		}
		for _, sg := range sh.segments {
			s.FootprintWords += sg.arena.Capacity()
		}
		sh.mu.Unlock()
		s.Shards[i] = ss
		s.Keys += ss.Keys
		s.Segments += ss.Segments
		s.Instantiated += ss.Instantiated
		s.Recycled += ss.Recycled
		s.Evictions += ss.Evictions
	}
	return s
}

// MetricsSnapshot merges every segment's passage metrics into one
// Map-wide view; the second result is false when the map was built
// without WithMetrics. Like Mutex.MetricsSnapshot it may be called
// while passages are in flight.
func (ma *Map) MetricsSnapshot() (metrics.Snapshot, bool) {
	if !ma.cfg.metrics {
		return metrics.Snapshot{}, false
	}
	snaps, _ := ma.ShardMetricsSnapshots()
	var s metrics.Snapshot
	for i, sh := range snaps {
		if i == 0 {
			s = sh
		} else {
			s = s.Merge(sh)
		}
	}
	return s, true
}

// ShardMetricsSnapshots returns one merged snapshot per shard (the
// Map's key-class granularity: keys hashing to the same shard share a
// snapshot). The second result is false without WithMetrics.
func (ma *Map) ShardMetricsSnapshots() ([]metrics.Snapshot, bool) {
	if !ma.cfg.metrics {
		return nil, false
	}
	out := make([]metrics.Snapshot, len(ma.shards))
	for i, sh := range ma.shards {
		sh.mu.Lock()
		segs := append([]*mapSegment(nil), sh.segments...)
		sh.mu.Unlock()
		for j, sg := range segs {
			if j == 0 {
				out[i] = sg.rec.Snapshot()
			} else {
				out[i] = out[i].Merge(sg.rec.Snapshot())
			}
		}
	}
	return out, true
}

// SetTracing starts or stops flight recording at runtime (no-op without
// WithTracing).
func (ma *Map) SetTracing(on bool) { ma.eng.setTracing(on) }

// TracingEnabled reports whether flight recording is currently active.
func (ma *Map) TracingEnabled() bool { return ma.eng.tracingEnabled() }

// FlightRecording snapshots the Map's flight recorder (events from
// passages on every key interleave per process). The second result is
// false without WithTracing.
func (ma *Map) FlightRecording() (*flight.Recording, bool) { return ma.eng.flightRecording() }

// FlightProfile returns the Map-wide phase-latency profile. The second
// result is false without WithTracing.
func (ma *Map) FlightProfile() (flight.Profile, bool) { return ma.eng.flightProfile() }
