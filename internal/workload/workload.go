// Package workload catalogs the lock implementations and failure
// scenarios that the experiment harness sweeps over. It is the single
// registry both cmd/rmebench and the benchmarks draw from, so every table
// row names its algorithm the same way.
package workload

import (
	"fmt"
	"sort"

	"rme/internal/arbtree"
	"rme/internal/bakery"
	"rme/internal/check"
	"rme/internal/core"
	"rme/internal/grlock"
	"rme/internal/mcs"
	"rme/internal/memory"
	"rme/internal/reclaim"
	"rme/internal/repro"
	"rme/internal/sim"
)

// Strength classifies a lock's recoverability.
type Strength int

// Lock strengths.
const (
	// NonRecoverable locks tolerate no failures at all; they exist as
	// ablation baselines and must only run under failure-free plans.
	NonRecoverable Strength = iota + 1
	// Weak locks may violate mutual exclusion inside failure consequence
	// intervals (Definition 3.2) but must be responsive.
	Weak
	// Strong locks satisfy mutual exclusion unconditionally.
	Strong
)

// Spec describes one registered lock implementation.
type Spec struct {
	// Name is the registry key (also used in reports).
	Name string
	// Paper identifies the row of Table 1 the lock corresponds to.
	Paper string
	// Strength classifies recoverability.
	Strength Strength
	// New constructs the lock.
	New sim.Factory
	// SlowLabels returns the escalation labels for depth measurements
	// (nil for non-recursive locks).
	SlowLabels func(n int) []string
	// Levels returns the recursion depth for n processes (0 for
	// non-recursive locks).
	Levels func(n int) int
}

// bcsrMaxOps bounds, in instructions, the re-entry passage of the BCSR
// check that Check and recorded repro artifacts apply to strong locks.
const bcsrMaxOps = 1 << 20

// Check runs the property battery of the lock's strength over a run:
// check.Strong for strong locks, check.Weak for weak ones, and mutual
// exclusion only for non-recoverable ablation baselines (which must run
// under failure-free plans).
func (s Spec) Check(res *sim.Result) error {
	switch s.Strength {
	case Strong:
		return check.Strong(res, bcsrMaxOps)
	case Weak:
		return check.Weak(res)
	}
	return check.MutualExclusion(res)
}

// RunSpec describes a run of the lock under cfg for repro.Record, whose
// replay applies the battery Check applies. repro has no battery for
// non-recoverable locks; they replay the strong one.
func (s Spec) RunSpec(cfg sim.Config, note string) repro.RunSpec {
	strength := repro.StrengthStrong
	if s.Strength == Weak {
		strength = repro.StrengthWeak
	}
	return repro.RunSpec{Lock: s.Name, Strength: strength, BCSRMaxOps: bcsrMaxOps, Config: cfg, Note: note}
}

func tournamentBase(sp memory.Space, n int) core.RecoverableLock {
	return grlock.NewTournament(sp, n)
}

func arbtreeBase(sp memory.Space, n int) core.RecoverableLock {
	return arbtree.New(sp, n, 0)
}

func poolSource(sp memory.Space, n, level int) core.NodeSource {
	return reclaim.NewPool(sp, n)
}

func slowLabels(levels func(int) int) func(int) []string {
	return func(n int) []string {
		m := levels(n)
		out := make([]string, m)
		for i := range out {
			out[i] = fmt.Sprintf("F%d:slow", i+1)
		}
		return out
	}
}

// Registry returns the lock catalog.
func Registry() map[string]Spec {
	return map[string]Spec{
		"mcs": {
			Name:     "mcs",
			Paper:    "Mellor-Crummey–Scott queue lock (non-recoverable ablation baseline)",
			Strength: NonRecoverable,
			New: func(sp memory.Space, n int) sim.Lock {
				return mcs.New(sp, n)
			},
		},
		"mcs-dt": {
			Name:     "mcs-dt",
			Paper:    "MCS with Dvir–Taubenfeld bounded exit (non-recoverable ablation baseline)",
			Strength: NonRecoverable,
			New: func(sp memory.Space, n int) sim.Lock {
				return mcs.NewBoundedExit(sp, n)
			},
		},
		"wr": {
			Name:     "wr",
			Paper:    "WR-Lock (Section 4, Algorithm 2): weakly recoverable MCS, O(1) everywhere",
			Strength: Weak,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewWRLock(sp, n, "wr", nil)
			},
		},
		"wr-pool": {
			Name:     "wr-pool",
			Paper:    "WR-Lock with Section 7.2 memory reclamation (bounded space)",
			Strength: Weak,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewWRLock(sp, n, "wr", reclaim.NewPool(sp, n))
			},
		},
		"bakery": {
			Name:     "bakery",
			Paper:    "recoverable Lamport bakery: read/write only, non-adaptive, T(n)=Θ(n) (CC)",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return bakery.New(sp, n)
			},
		},
		"sa-bakery": {
			Name:     "sa-bakery",
			Paper:    "SA-Lock over the bakery core: the shape of Golab–Ramaraju §4.2 in Table 1 — O(1)/O(n)/O(n)",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewSALock(sp, n, "F1", bakery.New(sp, n), nil)
			},
			SlowLabels: slowLabels(func(int) int { return 1 }),
			Levels:     func(int) int { return 1 },
		},
		"wr-notify": {
			Name:     "wr-notify",
			Paper:    "WR-Lock with the DSM notification-based reclamation variant (§7.2, last paragraph)",
			Strength: Weak,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewWRLock(sp, n, "wr", reclaim.NewNotifyPool(sp, n))
			},
		},
		"tournament": {
			Name:     "tournament",
			Paper:    "Golab–Ramaraju style tournament of recoverable 2-process locks: non-adaptive, T(n)=O(log n)",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return grlock.NewTournament(sp, n)
			},
		},
		"arbtree": {
			Name:     "arbtree",
			Paper:    "Δ-ary arbitration tree (JJJ shape): non-adaptive, T(n)=O(log n/log log n) (CC)",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return arbtree.New(sp, n, 0)
			},
		},
		"sa": {
			Name:     "sa",
			Paper:    "SA-Lock (Section 5.1, Algorithm 3) over the tournament core: semi-adaptive",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewSALock(sp, n, "F1", grlock.NewTournament(sp, n), nil)
			},
			SlowLabels: slowLabels(func(int) int { return 1 }),
			Levels:     func(int) int { return 1 },
		},
		"ba-log": {
			Name:     "ba-log",
			Paper:    "BA-Lock (Section 5.2) over the tournament base: super-adaptive, O(min{√F, log n})",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewBALock(sp, n, core.DefaultLevels(n), tournamentBase, nil)
			},
			SlowLabels: slowLabels(core.DefaultLevels),
			Levels:     core.DefaultLevels,
		},
		"ba-sublog": {
			Name:     "ba-sublog",
			Paper:    "BA-Lock over the arbitration-tree base: well-bounded super-adaptive, O(min{√F, log n/log log n})",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewBALock(sp, n, core.SubLogLevels(n), arbtreeBase, nil)
			},
			SlowLabels: slowLabels(core.SubLogLevels),
			Levels:     core.SubLogLevels,
		},
		"ba-pool": {
			Name:     "ba-pool",
			Paper:    "BA-Lock over the tournament base with reclamation pools at every level (bounded space)",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewBALock(sp, n, core.DefaultLevels(n), tournamentBase, poolSource)
			},
			SlowLabels: slowLabels(core.DefaultLevels),
			Levels:     core.DefaultLevels,
		},
		"ba-sublog-pool": {
			Name:     "ba-sublog-pool",
			Paper:    "BA-Lock over the arbitration-tree base with reclamation pools at every level — the exact recipe of the native rme.New(WithBase(BaseArbTree)) lock",
			Strength: Strong,
			New: func(sp memory.Space, n int) sim.Lock {
				return core.NewBALock(sp, n, core.SubLogLevels(n), arbtreeBase, poolSource)
			},
			SlowLabels: slowLabels(core.SubLogLevels),
			Levels:     core.SubLogLevels,
		},
	}
}

// Names returns the registry keys in sorted order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the spec for name.
func Lookup(name string) (Spec, error) {
	s, ok := Registry()[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown lock %q (have %v)", name, Names())
	}
	return s, nil
}

// Scenario names a failure-injection pattern for the three columns of
// Table 1.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Plan builds a fresh failure plan for a run over n processes; nil
	// Plans inject nothing.
	Plan func(n int) sim.FailurePlan
}

// Scenarios returns the three Table 1 failure regimes plus targeted and
// batch extras. failures parameterizes the "F failures" column.
func Scenarios(failures int) []Scenario {
	return []Scenario{
		{Name: "no failures", Plan: nil},
		{Name: fmt.Sprintf("%d failures", failures), Plan: func(n int) sim.FailurePlan {
			return &sim.FailureBudget{Total: failures, Rate: 0.02}
		}},
		{Name: "heavy failures", Plan: func(n int) sim.FailurePlan {
			return &sim.RandomFailures{Rate: 0.01, MaxPerProcess: 4, DuringPassage: true}
		}},
	}
}

// UnsafeAtLevel builds a plan that crashes pid immediately after the
// sensitive FAS of the level-k filter ("F<k>:fas") — the paper's unsafe
// failure, used to force escalation deterministically.
func UnsafeAtLevel(pid, level, occurrence int) sim.FailurePlan {
	return &sim.CrashOnLabel{
		PID:        pid,
		Label:      fmt.Sprintf("F%d:fas", level),
		Occurrence: occurrence,
		After:      true,
	}
}

// Batch builds a batch-failure plan (Section 7.1): all pids crash at
// their first instruction after global time atSeq.
func Batch(atSeq int64, pids []int) sim.FailurePlan {
	return &sim.BatchCrash{AtSeq: atSeq, PIDs: pids}
}
