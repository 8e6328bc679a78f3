package regime

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"rme"
	"rme/internal/flight"
	"rme/internal/metrics"
	"rme/internal/workload"
)

// The native regimes drive real rme.Mutex / rme.Map passages from worker
// goroutines, continuously, until stopped:
//
//	hot    every worker contends on one rme.Mutex — pure contention; at
//	       one worker this is the uncontended failure-free anchor whose
//	       RMR median must equal the BENCH_metrics F=0 row.
//	zipf   workers draw Zipf-distributed keys over an rme.Map — the
//	       skewed-popularity case sharded maps exist for.
//	churn  every passage touches a fresh key through a deliberately tiny
//	       map (1 shard × 8 slots) — key lifecycle (evict, recycle,
//	       re-instantiate) dominates.
//	abort  workers race TryLockFor with a short deadline on one
//	       rme.Mutex — sustained deadline-abort traffic.
//	crash  a failure-injection hook crashes processes mid-passage at a
//	       small per-instruction rate; Passage retries drive recovery.
//	soak   the lockstep adversary campaign (Campaign) looped over a
//	       rotating seed window — the randomized correctness battery as
//	       a continuous background workload.
//
// Every regime is built with WithMetrics and WithTracing, so /metrics,
// /debug/flight and /debug/profile observe it live. The drivers throttle
// with a short think time per passage: the point is sustained realistic
// traffic, not a saturation benchmark.

// thinkTime paces each worker between passages.
const thinkTime = 200 * time.Microsecond

// abortDeadline is the TryLockFor deadline of the abort regime — short
// enough that contended waits abort, long enough that some succeed.
const abortDeadline = 100 * time.Microsecond

// crashRate is the per-instruction crash probability of the crash regime.
const crashRate = 0.0005

// zipfKeys and zipfS shape the zipf regime's key popularity.
const (
	zipfKeys = 64
	zipfS    = 1.1
)

// Names lists the available regimes, in display order.
func Names() []string {
	return []string{"hot", "zipf", "churn", "abort", "crash", "soak"}
}

// Status is the /workloads JSON row for one regime.
type Status struct {
	Name    string `json:"name"`
	Running bool   `json:"running"`
	Workers int    `json:"workers"`
	// Metrics is the merged passage snapshot (absent until first start
	// for the soak regime, zero-valued for native regimes).
	Metrics metrics.Snapshot `json:"metrics"`
	// SoakRuns / SoakViolations accumulate over soak rounds (soak only).
	SoakRuns       int `json:"soak_runs,omitempty"`
	SoakViolations int `json:"soak_violations,omitempty"`
}

// Runner drives one regime. A Runner is built stopped; Start launches the
// worker goroutines and Stop drains them. Snapshot, MapStats and the
// flight accessors are safe to call at any time, running or not — scrapes
// read the same seqlock-consistent recorders the passage path writes, and
// issue no shared-memory operations of their own.
type Runner struct {
	name    string
	workers int

	mtx *rme.Mutex // hot, abort, crash (nil otherwise)
	mp  *rme.Map   // zipf, churn (nil otherwise)

	// soak state: the campaign aggregate persists across rounds.
	soak     *Campaign
	soakDir  string
	soakMu   sync.Mutex
	soakRuns int
	soakBad  int

	mu      sync.Mutex
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	running bool
}

// New builds the named regime for workers processes. OutDir receives soak
// repro artifacts (only the soak regime writes there).
func New(name string, workers int, outDir string) (*Runner, error) {
	if workers < 1 {
		return nil, fmt.Errorf("regime: %s: %d workers, want ≥ 1", name, workers)
	}
	r := &Runner{name: name, workers: workers, soakDir: outDir}
	base := []rme.Option{rme.WithMetrics(), rme.WithTracing(rme.TracingOptions{})}
	var err error
	switch name {
	case "hot", "abort":
		r.mtx, err = rme.New(workers, base...)
	case "crash":
		rngs := make([]*rand.Rand, workers)
		for pid := range rngs {
			rngs[pid] = rand.New(rand.NewSource(int64(pid)*1099511628211 + 17))
		}
		opts := append(base, rme.WithFailures(func(pid int) bool {
			// Each pid's rng is touched only from that process's own
			// instruction stream, so this is race-free.
			return rngs[pid].Float64() < crashRate
		}))
		r.mtx, err = rme.New(workers, opts...)
	case "zipf":
		r.mp, err = rme.NewMap(workers, base...)
	case "churn":
		opts := append(base, rme.WithShards(1), rme.WithSegmentSlots(8))
		r.mp, err = rme.NewMap(workers, opts...)
	case "soak":
		var specs []workload.Spec
		for _, n := range workload.Shipped() {
			specs = append(specs, workload.Registry()[n])
		}
		r.soak = &Campaign{Seeds: 2, N: min(workers, 5), Requests: 2,
			OutDir: outDir, Specs: specs, Stdout: discard{}}
	default:
		return nil, fmt.Errorf("regime: unknown regime %q (have: %v)", name, Names())
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Name returns the regime name.
func (r *Runner) Name() string { return r.name }

// Workers returns the process count.
func (r *Runner) Workers() int { return r.workers }

// Running reports whether the drivers are live.
func (r *Runner) Running() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// Start launches the workers; it is a no-op if already running.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.running = true
	if r.soak != nil {
		r.wg.Add(1)
		go r.driveSoak(ctx)
		return
	}
	for pid := 0; pid < r.workers; pid++ {
		r.wg.Add(1)
		go r.drive(ctx, pid)
	}
}

// Stop cancels the workers and waits for every in-flight passage to
// drain; it is a no-op if not running.
func (r *Runner) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	r.cancel()
	r.mu.Unlock()
	r.wg.Wait()
}

// drive is one native worker: a passage, then a think pause, until
// cancelled.
func (r *Runner) drive(ctx context.Context, pid int) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(int64(pid)*1099511628211 + 7))
	var zipf *rand.Zipf
	if r.name == "zipf" {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(zipfKeys-1))
	}
	for i := 0; ctx.Err() == nil; i++ {
		switch r.name {
		case "hot":
			r.mtx.Lock(pid)
			r.mtx.Unlock(pid)
		case "abort":
			if r.mtx.TryLockFor(pid, abortDeadline) {
				r.mtx.Unlock(pid)
			}
		case "crash":
			// Passage returns false when the injected hook crashed the
			// process; the next iteration recovers.
			r.mtx.Passage(pid, func() {})
		case "zipf":
			key := "key-" + strconv.FormatUint(zipf.Uint64(), 10)
			r.mp.Lock(pid, key)
			r.mp.Unlock(pid, key)
		case "churn":
			key := "churn-" + strconv.Itoa(pid) + "-" + strconv.Itoa(i)
			r.mp.Lock(pid, key)
			r.mp.Unlock(pid, key)
		}
		time.Sleep(thinkTime)
	}
}

// driveSoak loops lockstep campaign rounds over a rotating seed window.
func (r *Runner) driveSoak(ctx context.Context) {
	defer r.wg.Done()
	for round := int64(0); ctx.Err() == nil; round++ {
		r.soak.SeedBase = round * int64(r.soak.Seeds)
		runs, bad := r.soak.Run()
		r.soakMu.Lock()
		r.soakRuns += runs
		r.soakBad += bad
		r.soakMu.Unlock()
		select {
		case <-ctx.Done():
		case <-time.After(10 * thinkTime):
		}
	}
}

// Snapshot returns the regime's merged passage metrics.
func (r *Runner) Snapshot() metrics.Snapshot {
	switch {
	case r.mtx != nil:
		s, _ := r.mtx.MetricsSnapshot()
		return s
	case r.mp != nil:
		s, _ := r.mp.MetricsSnapshot()
		return s
	default:
		var s metrics.Snapshot
		for _, v := range r.soak.Metrics() {
			s = s.Merge(v)
		}
		return s
	}
}

// MapStats returns keyed-map lifecycle stats for map-backed regimes.
func (r *Runner) MapStats() (rme.MapStats, bool) {
	if r.mp == nil {
		return rme.MapStats{}, false
	}
	return r.mp.Stats(), true
}

// FlightRecording returns the live flight-recorder dump of native
// regimes (nil, false for the soak regime).
func (r *Runner) FlightRecording() (*flight.Recording, bool) {
	switch {
	case r.mtx != nil:
		return r.mtx.FlightRecording()
	case r.mp != nil:
		return r.mp.FlightRecording()
	}
	return nil, false
}

// FlightProfile returns the live phase-latency profile of native regimes.
func (r *Runner) FlightProfile() (flight.Profile, bool) {
	switch {
	case r.mtx != nil:
		return r.mtx.FlightProfile()
	case r.mp != nil:
		return r.mp.FlightProfile()
	}
	return flight.Profile{}, false
}

// Status assembles the /workloads row.
func (r *Runner) Status() Status {
	st := Status{
		Name:    r.name,
		Running: r.Running(),
		Workers: r.workers,
		Metrics: r.Snapshot(),
	}
	if r.soak != nil {
		r.soakMu.Lock()
		st.SoakRuns, st.SoakViolations = r.soakRuns, r.soakBad
		r.soakMu.Unlock()
	}
	return st
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
