package sim

import (
	"fmt"

	"rme/internal/memory"
)

// This file implements the deterministic crash-sweep planner: instead of
// sampling crash placements from a seeded distribution (RandomFailures,
// UnsafeBudget), the sweep enumerates them exhaustively. A first
// instrumented, failure-free pass records every process's instruction
// stream; the planner then emits one Placement per
//
//   - (pid, OpIndex) instruction boundary up to a per-process horizon
//     ("the process fails immediately before this instruction"),
//   - rendezvous immediately after each RMW instruction — the placement
//     that exercises the sensitive window of Definition 3.3/3.4 (a crash
//     between the FAS on tail and persisting its result), and
//   - optionally, every pair of after-RMW placements, for the F ≥ 2
//     escalation paths of the SA/BA filters, and with aborts too, a
//     crash after each RMW followed by an abort of the restarted passage.
//
// Each placement is a CrashSet, so re-running it is deterministic, and any
// violating placement converts directly into an internal/repro artifact.

// SweepConfig parameterizes a crash-placement sweep.
type SweepConfig struct {
	// Config is the run template (N, Model, Requests, Seed, CSOps,
	// MaxSteps). Plan must be nil: the sweep owns failure injection.
	// Sched must be nil: placements rely on the seeded random scheduler
	// being stateless so that every run draws the same interleaving
	// distribution.
	Config Config
	// Horizon caps the per-process instruction boundaries that receive a
	// single-crash placement (0 = every boundary of the recorded stream).
	// After-RMW placements are always generated for the whole stream,
	// regardless of Horizon, so sensitive-instruction coverage never
	// degrades when the horizon is tightened.
	Horizon int64
	// Pairs adds a two-crash placement for every pair of after-RMW
	// points, for the F ≥ 2 escalation paths. Pairs of labeled, sensitive
	// RMWs (labels ending in ":fas") come first.
	Pairs bool
	// Aborts adds abort placements: a single abort at every (pid,
	// OpIndex) boundary up to the horizon, at the rendezvous after each
	// RMW (full stream), plus, for every after-RMW point, same-pid
	// abort×crash pairs where the crash lands a few instructions after
	// the abort — i.e. during the back-out protocol — exercising
	// crash-during-abort recovery. With Pairs as well, every after-RMW
	// point also gets the mirror image, same-pid crash×abort pairs: the
	// crash, then an abort a few instructions into the restarted
	// passage, which backs out from what the crash left.
	Aborts bool
}

// Placement is one entry of a sweep plan: a deterministic set of crash
// points plus, for each point that targets the rendezvous after an RMW, the
// instruction it follows (zero OpInfo for plain boundary placements).
type Placement struct {
	Points []CrashPoint
	// After[i] is the instruction Points[i] immediately follows, when the
	// point was generated as an after-RMW placement.
	After []memory.OpInfo
	// Aborts are the abort deliveries of the placement, named exactly
	// like crash points; AbortAfter mirrors After for them.
	Aborts     []CrashPoint
	AbortAfter []memory.OpInfo
}

func annotate(s string, pts []CrashPoint, after []memory.OpInfo) string {
	for i, pt := range pts {
		s += fmt.Sprintf(" p%d@%d", pt.PID, pt.OpIndex)
		if i < len(after) && after[i].Kind != 0 {
			s += fmt.Sprintf("(after %s", after[i].Kind)
			if after[i].Label != "" {
				s += " " + after[i].Label
			}
			s += ")"
		}
	}
	return s
}

func (pl Placement) String() string {
	var s string
	if len(pl.Points) > 0 {
		s = annotate("crash", pl.Points, pl.After)
	}
	if len(pl.Aborts) > 0 {
		if s != "" {
			s += " "
		}
		s = annotate(s+"abort", pl.Aborts, pl.AbortAfter)
	}
	if s == "" {
		s = "no-fault"
	}
	return s
}

// HasAborts reports whether the placement delivers any aborts.
func (pl Placement) HasAborts() bool { return len(pl.Aborts) > 0 }

// SweepPlan is the output of PlanSweep: the instrumented pass it was
// derived from, the per-process instruction streams, and the enumerated
// placements.
type SweepPlan struct {
	cfg SweepConfig
	// Trace is the failure-free instrumented pass the plan was derived
	// from.
	Trace *Result
	// Streams[pid][k] is the k-th instruction process pid executed in the
	// instrumented pass; k is exactly the OpIndex a CrashPoint names.
	Streams [][]memory.OpInfo
	// Placements is the enumerated crash plan.
	Placements []Placement
	// CrashPairs counts the two-crash placements in the plan, one per
	// pair of after-RMW points when SweepConfig.Pairs is set.
	CrashPairs int

	afterCover map[CrashPoint]bool
}

// PlanSweep runs the instrumented pass for sc and enumerates the sweep's
// crash placements.
func PlanSweep(sc SweepConfig, factory Factory) (*SweepPlan, error) {
	if sc.Config.Plan != nil {
		return nil, fmt.Errorf("sim: SweepConfig.Config.Plan must be nil (the sweep owns failure injection)")
	}
	if sc.Config.Sched != nil {
		return nil, fmt.Errorf("sim: SweepConfig.Config.Sched must be nil (the sweep requires the stateless seeded scheduler)")
	}
	probe := sc.Config
	probe.RecordOps = true
	probe.OnEvent = nil
	r, err := New(probe, factory)
	if err != nil {
		return nil, err
	}
	trace, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("sim: sweep instrumented pass failed: %w", err)
	}

	streams := make([][]memory.OpInfo, sc.Config.N)
	for _, ev := range trace.Events {
		if ev.Kind == EvOp {
			streams[ev.PID] = append(streams[ev.PID], ev.Op)
		}
	}

	sp := &SweepPlan{cfg: sc, Trace: trace, Streams: streams, afterCover: map[CrashPoint]bool{}}
	seen := map[CrashPoint]bool{}
	add := func(pt CrashPoint, after memory.OpInfo) {
		if after.Kind != 0 {
			sp.afterCover[pt] = true
		}
		if seen[pt] {
			return
		}
		seen[pt] = true
		sp.Placements = append(sp.Placements, Placement{
			Points: []CrashPoint{pt},
			After:  []memory.OpInfo{after},
		})
	}

	// Single crashes at every instruction boundary up to the horizon.
	for pid, stream := range streams {
		limit := int64(len(stream))
		if sc.Horizon > 0 && sc.Horizon < limit {
			limit = sc.Horizon
		}
		for k := int64(0); k < limit; k++ {
			add(CrashPoint{PID: pid, OpIndex: k}, memory.OpInfo{})
		}
	}

	// The rendezvous immediately after each RMW: a crash before the next
	// instruction. Generated for the full stream so the sensitive FAS
	// window is always swept.
	type afterPt struct {
		pt CrashPoint
		op memory.OpInfo
	}
	// Sensitive points first, each group in (pid, OpIndex) order.
	var sensitive, otherRMW []afterPt
	for pid, stream := range streams {
		for k, op := range stream {
			if op.Kind != memory.OpFAS && op.Kind != memory.OpCAS {
				continue
			}
			a := afterPt{pt: CrashPoint{PID: pid, OpIndex: int64(k) + 1}, op: op}
			add(a.pt, a.op)
			if isSensitiveLabel(op.Label) {
				sensitive = append(sensitive, a)
			} else {
				otherRMW = append(otherRMW, a)
			}
		}
	}

	pool := append(sensitive, otherRMW...)

	if sc.Pairs {
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				a, b := pool[i], pool[j]
				// A same-pid pair crashes at the earlier point first; the
				// restarted process re-executes with its instruction
				// count carried over.
				if a.pt.PID == b.pt.PID && a.pt.OpIndex > b.pt.OpIndex {
					a, b = b, a
				}
				sp.Placements = append(sp.Placements, Placement{
					Points: []CrashPoint{a.pt, b.pt},
					After:  []memory.OpInfo{a.op, b.op},
				})
				sp.CrashPairs++
			}
		}
	}

	if sc.Aborts {
		seenAbort := map[CrashPoint]bool{}
		addAbort := func(pt CrashPoint, after memory.OpInfo) {
			if seenAbort[pt] {
				return
			}
			seenAbort[pt] = true
			sp.Placements = append(sp.Placements, Placement{
				Aborts:     []CrashPoint{pt},
				AbortAfter: []memory.OpInfo{after},
			})
		}

		// A single abort at every boundary up to the horizon: the process
		// is unwound immediately before its k-th instruction and backs
		// out from exactly that much progress.
		for pid, stream := range streams {
			limit := int64(len(stream))
			if sc.Horizon > 0 && sc.Horizon < limit {
				limit = sc.Horizon
			}
			for k := int64(0); k < limit; k++ {
				addAbort(CrashPoint{PID: pid, OpIndex: k}, memory.OpInfo{})
			}
		}

		// Aborts immediately after each RMW (full stream): the back-out
		// from a just-completed sensitive FAS is the abandon dance's
		// hardest case.
		for pid, stream := range streams {
			for k, op := range stream {
				if op.Kind != memory.OpFAS && op.Kind != memory.OpCAS {
					continue
				}
				addAbort(CrashPoint{PID: pid, OpIndex: int64(k) + 1}, op)
			}
		}

		// Abort×crash pairs: the same process crashes d instructions
		// after its abort was delivered, so the crash lands inside the
		// back-out protocol (or, for larger d, in the retry passage).
		// Sensitive-RMW aborts are paired first.
		for _, a := range pool {
			for _, d := range pairGaps {
				sp.Placements = append(sp.Placements, Placement{
					Aborts:     []CrashPoint{a.pt},
					AbortAfter: []memory.OpInfo{a.op},
					Points:     []CrashPoint{{PID: a.pt.PID, OpIndex: a.pt.OpIndex + d}},
					After:      []memory.OpInfo{{}},
				})
			}
		}

		// Crash×abort pairs, the mirror image: the process crashes
		// right after an RMW, and the passage it restarts is aborted d
		// instructions in, so the back-out starts from whatever the
		// crash left half done (a fast-path claim won but not yet
		// entered, a FAS whose result was never persisted).
		if sc.Pairs {
			for _, a := range pool {
				for _, d := range pairGaps {
					sp.Placements = append(sp.Placements, Placement{
						Points:     []CrashPoint{a.pt},
						After:      []memory.OpInfo{a.op},
						Aborts:     []CrashPoint{{PID: a.pt.PID, OpIndex: a.pt.OpIndex + d}},
						AbortAfter: []memory.OpInfo{{}},
					})
				}
			}
		}
	}
	return sp, nil
}

// pairGaps are the distances, in instructions of the same process, from
// the first fault of a mixed abort and crash pair to the second.
var pairGaps = []int64{1, 3, 8}

// isSensitiveLabel reports whether an instruction label marks a weakly
// recoverable filter's sensitive FAS (the "<instance>:fas" convention used
// throughout internal/core).
func isSensitiveLabel(l string) bool {
	return len(l) > 4 && l[len(l)-4:] == ":fas"
}

// CoversAfter reports whether the plan contains a crash placement at the
// rendezvous immediately after instruction (pid, opIndex) of the
// instrumented pass — i.e. a point at (pid, opIndex+1) generated from an
// RMW. The coverage cross-check against the rme:sensitive-instructions
// inventories is built on this.
func (sp *SweepPlan) CoversAfter(pid int, opIndex int64) bool {
	return sp.afterCover[CrashPoint{PID: pid, OpIndex: opIndex + 1}]
}

// Run executes placement i of the plan under the sweep's run template and
// returns the result. Each call constructs a fresh CrashSet, so placements
// may be run in any order and repeatedly.
func (sp *SweepPlan) Run(i int, factory Factory) (*Result, error) {
	if i < 0 || i >= len(sp.Placements) {
		return nil, fmt.Errorf("sim: placement index %d out of range [0,%d)", i, len(sp.Placements))
	}
	cfg := sp.cfg.Config
	pl := sp.Placements[i]
	if pl.HasAborts() {
		cfg.Plan = &FaultSet{
			Crashes: CrashSet{Points: append([]CrashPoint{}, pl.Points...)},
			Aborts:  AbortSet{Points: append([]CrashPoint{}, pl.Aborts...)},
		}
	} else {
		cfg.Plan = &CrashSet{Points: append([]CrashPoint{}, pl.Points...)}
	}
	r, err := New(cfg, factory)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
