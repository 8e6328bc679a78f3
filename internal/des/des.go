// Package des is a virtual-time discrete-event traffic simulator layered
// on the lockstep runner of internal/sim.
//
// The lockstep simulator certifies correctness: it counts RMRs exactly and
// can place a crash at any instruction boundary, but it has no notion of
// time — every instruction is one logical tick, so it cannot answer the
// production questions ("what is p99 passage latency at this request rate
// with bursty arrivals?"). This package adds the time domain without
// giving up determinism:
//
//   - Every process carries a virtual clock (nanoseconds). The engine is a
//     sim.Scheduler: because the lockstep runner parks every live process
//     before each grant, picking the minimum-clock process is an exact
//     discrete-event simulation — virtual time never runs backwards.
//   - A LatencyModel charges each executed shared-memory instruction to
//     the clock of the process that ran it, using the arena's exact RMR
//     accounting (CC or DSM): local/cached operations are cheap, remote
//     memory references are expensive, and each RMR pays an additional
//     contention penalty per concurrent in-passage process.
//   - Environment events — crash storms, uniform crash schedules,
//     straggler on/off phases — live on a binary-heap event queue ordered
//     by virtual time and fire when the clock passes them. (Process wakes
//     do not use the heap: all live processes are parked at every grant,
//     so a linear arg-min over n is exactly equivalent and cheaper than
//     rebuilding a heap whose keys all change each round.)
//   - Workload generators shape traffic: Poisson arrivals, MMPP-style
//     on/off bursty arrivals, Zipf-distributed key access over an
//     rme.Map-shaped keyspace of locks, think-time phases, correlated
//     crash storms and slow-process stragglers.
//
// Everything is driven by seeded deterministic RNGs that are consumed in
// scheduler order, so the same Config produces a bit-identical event
// trace — the determinism the repro subsystem relies on elsewhere holds
// here too, and is pinned by tests.
package des

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// Config parameterizes one virtual-time run.
type Config struct {
	// Lock is the workload-registry name of the lock under test (default
	// "ba-log", the lock rme.New ships).
	Lock string
	// N is the number of processes.
	N int
	// Model selects CC or DSM accounting (default CC).
	Model memory.Model
	// Requests is the number of satisfied requests per process.
	Requests int
	// Seed drives every random stream of the run.
	Seed int64
	// Keys selects the keyspace shape: values > 1 interpose a Zipf-keyed
	// composite of Keys independent lock instances (the rme.Map shape);
	// 0 or 1 runs a single lock with no keyspace overhead.
	Keys int
	// ZipfS is the Zipf skew parameter s > 1 for keyed runs (default 1.1).
	ZipfS float64
	// Arrival shapes request arrivals (think times). The zero value is a
	// Poisson process at DefaultArrivalRate.
	Arrival Arrival
	// Latency maps operations to virtual nanoseconds. Zero fields take
	// DefaultLatency values.
	Latency LatencyModel
	// Crashes schedules failures in virtual time (default none).
	Crashes Crashes
	// Aborts arms a per-passage deadline after which the waiter backs out
	// via the lock's abort protocol (default none). Requires a lock whose
	// recipe supports abortable passages.
	Aborts Aborts
	// Stragglers slows a subset of processes (default none).
	Stragglers Stragglers
	// HoldNs is virtual work performed inside the critical section, on top
	// of the instruction costs (default 500ns).
	HoldNs int64
	// CSOps is the number of (local) scratch reads in the CS (default 1).
	CSOps int
	// MaxSteps bounds the underlying lockstep run (default 50M grants).
	MaxSteps int64
	// RecordTrace keeps the full event trace in the result (tests only;
	// the rolling TraceHash is always computed).
	RecordTrace bool
}

func (c *Config) fill() error {
	if c.Lock == "" {
		c.Lock = workload.Shipped()[0]
	}
	if c.N < 1 {
		return fmt.Errorf("des: N = %d, want ≥ 1", c.N)
	}
	if c.Model == 0 {
		c.Model = memory.CC
	}
	if c.Requests < 1 {
		return fmt.Errorf("des: Requests = %d, want ≥ 1", c.Requests)
	}
	if c.Keys < 0 {
		return fmt.Errorf("des: Keys = %d, want ≥ 0", c.Keys)
	}
	if c.Keys > 1 && c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Keys > 1 && c.ZipfS <= 1 {
		return fmt.Errorf("des: ZipfS = %v, want > 1", c.ZipfS)
	}
	c.Arrival.fill()
	c.Latency.fill()
	if err := c.Crashes.fill(); err != nil {
		return err
	}
	if err := c.Aborts.check(); err != nil {
		return err
	}
	if err := c.Stragglers.check(c.N); err != nil {
		return err
	}
	if c.HoldNs == 0 {
		c.HoldNs = 500
	}
	if c.HoldNs < 0 {
		return fmt.Errorf("des: HoldNs = %d, want ≥ 0", c.HoldNs)
	}
	if c.CSOps == 0 {
		c.CSOps = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 50_000_000
	}
	return nil
}

// Run executes one virtual-time simulation to completion and returns the
// collected traffic statistics. The underlying lockstep result is
// embedded so callers can run the usual property checks against it.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	spec, err := workload.Lookup(cfg.Lock)
	if err != nil {
		return nil, err
	}

	eng := newEngine(cfg)
	factory := spec.New
	var ks *Keyspace
	if cfg.Keys > 1 {
		factory = func(sp memory.Space, n int) sim.Lock {
			ks = NewKeyspace(sp, n, cfg.Keys, cfg.ZipfS, cfg.Seed, spec.New)
			return ks
		}
	}

	simCfg := sim.Config{
		N:        cfg.N,
		Model:    cfg.Model,
		Requests: cfg.Requests,
		Seed:     cfg.Seed,
		Sched:    eng,
		Plan:     eng,
		CSOps:    cfg.CSOps,
		MaxSteps: cfg.MaxSteps,
		OnEvent:  eng.onEvent,
	}
	r, err := sim.New(simCfg, factory)
	if err != nil {
		return nil, err
	}
	if cfg.Aborts.DeadlineNs > 0 && ks != nil && !ks.Abortable() {
		// The Keyspace facade always satisfies sim.Aborter, so the runner
		// would deliver aborts that the inner recipe cannot back out of.
		return nil, fmt.Errorf("des: %s does not support abortable passages", cfg.Lock)
	}
	eng.attach(r.Arena(), ks)
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("des: %s n=%d seed=%d: %w", cfg.Lock, cfg.N, cfg.Seed, err)
	}
	return eng.finish(res), nil
}
