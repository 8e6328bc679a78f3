package bench

import (
	"fmt"
	"math"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
	"rme/internal/yalock"
)

// runSeeds is RunSeeds behind a seam so tests can stub simulator failures
// and pin down the error-path cell arity of every experiment.
var runSeeds = RunSeeds

// Adaptivity regenerates the headline result (Theorems 5.18/5.19): mean
// and max RMRs per passage as the number of injected failures F grows,
// for the super-adaptive locks against the non-adaptive baselines. The
// super-adaptive curves should grow like √F and plateau at the base
// lock's T(n); the baselines stay flat at T(n).
func Adaptivity(o Opts) *Table {
	o.fill()
	failures := []int{0, 1, 2, 4, 8, 16, 32, 64}
	t := &Table{
		Title: fmt.Sprintf("Adaptivity (Thm 5.18): RMRs per passage vs unsafe failures F (CC, n=%d)", o.N),
		Columns: []string{"F", "ba-log aff-mean", "ba-log aff-max", "ba-sublog aff-max",
			"tournament mean", "wr mean", "depth(ba-log)"},
		Notes: []string{
			"failures are injected immediately after filter FAS instructions (the paper's unsafe adversary)",
			"aff-*: passages overlapping a failure's consequence interval (the passages Thm 5.18 bounds)",
			"ba-* grow ~√F then plateau at the base lock's T(n); tournament stays flat at T(n); wr stays O(1)",
		},
	}
	var xs, ys []float64
	for _, f := range failures {
		row := []interface{}{f}
		var depth int
		for _, lk := range []string{"ba-log", "ba-sublog", "tournament", "wr"} {
			pt := Point{Lock: lk, N: o.N, Model: memory.CC, Requests: o.Requests + f/8,
				Plan: unsafePlan(f, o.N), RecordOps: lk == "ba-log" || lk == "ba-sublog"}
			m, err := runSeeds(pt, o.Seeds)
			if err != nil {
				if lk == "ba-log" {
					// ba-log contributes two columns (aff-mean, aff-max);
					// a single ERR cell would misalign the rest of the row.
					row = append(row, "ERR", "ERR")
				} else {
					row = append(row, "ERR")
				}
				continue
			}
			switch lk {
			case "ba-log":
				row = append(row, m.AffMean, m.AffMax)
				depth = m.MaxDepth
				if f > 0 && m.AffMean > 0 {
					xs = append(xs, float64(f))
					ys = append(ys, m.AffMean)
				}
			case "ba-sublog":
				row = append(row, m.AffMax)
			default:
				row = append(row, m.FFMean)
			}
		}
		row = append(row, depth)
		t.Add(row...)
	}
	if len(xs) > 2 {
		c, resid := FitSqrt(xs, ys)
		t.Notes = append(t.Notes, fmt.Sprintf("ba-log aff-mean ≈ %.2f·√F fit, normalized residual %.2f", c, resid))
	}
	return t
}

// unsafePlan builds the paper's unsafe adversary: F failures immediately
// after filter FAS instructions, spread across processes so fragmentation
// compounds instead of one victim crash-looping while everyone else drains.
func unsafePlan(f, n int) func(int) sim.FailurePlan {
	if f == 0 {
		return nil
	}
	perProc := (f + n - 1) / n
	return func(n int) sim.FailurePlan {
		// Rate < 1 spreads strikes across the run; hitting every early
		// FAS would mostly crash queue heads, which is harmless.
		return &sim.UnsafeBudget{Total: f, MaxPerProcess: perProc, Rate: 0.3}
	}
}

// Escalation regenerates Theorem 5.17: the deepest level a process
// escalates to as a function of injected failures. Reaching level x
// requires at least x(x-1)/2 failures, so depth grows like O(√F).
func Escalation(o Opts) *Table {
	o.fill()
	t := &Table{
		Title:   fmt.Sprintf("Escalation (Thm 5.17): deepest level vs failures (ba-log, CC, n=%d)", o.N),
		Columns: []string{"F", "max depth", "depth bound ⌊(1+√(1+8F))/2⌋", "bound holds"},
		Notes:   []string{"Theorem 5.17: reaching level x requires ≥ x(x-1)/2 overlapping failures"},
	}
	for _, f := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		pt := Point{Lock: "ba-log", N: o.N, Model: memory.CC, Requests: o.Requests + f/8,
			Plan: unsafePlan(f, o.N), RecordOps: true}
		m, err := runSeeds(pt, o.Seeds)
		if err != nil {
			t.Add(f, "ERR", "-", "-")
			continue
		}
		// x(x-1)/2 ≤ F  ⇒  x ≤ (1+√(1+8F))/2.
		bound := int(math.Floor((1 + math.Sqrt(1+8*float64(f))) / 2))
		holds := "yes"
		if m.MaxDepth > bound {
			holds = "NO"
		}
		t.Add(f, m.MaxDepth, bound, holds)
	}
	return t
}

// Batch regenerates the Section 7.1 analysis: a single batch failure of k
// processes escalates passages by at most one level (cost O(F_b + √F)),
// unlike k independent failures which can drive escalation to depth
// Θ(√k).
func Batch(o Opts) *Table {
	o.fill()
	t := &Table{
		Title:   fmt.Sprintf("Batch failures (Thm 7.1): simultaneous batch of k vs k independent unsafe failures (ba-log, CC, n=%d)", o.N),
		Columns: []string{"k", "batch: depth", "batch: aff-mean RMRs", "independent: depth", "independent: aff-mean RMRs"},
		Notes: []string{
			"a batch of k simultaneous crashes contains at most ~1 unsafe failure, so it escalates ≤ 1 level (O(F_b) term);",
			"k independent unsafe failures can escalate up to Θ(√k) levels (the √F term)",
		},
	}
	for _, k := range []int{2, 4, 8} {
		k := k
		batchPlan := func(n int) sim.FailurePlan {
			pids := make([]int, k)
			for i := range pids {
				pids[i] = i % n
			}
			return workload.Batch(60, pids)
		}
		indepPlan := unsafePlan(k, o.N)
		mb, err1 := runSeeds(Point{Lock: "ba-log", N: o.N, Model: memory.CC, Requests: o.Requests,
			Plan: batchPlan, RecordOps: true}, o.Seeds)
		mi, err2 := runSeeds(Point{Lock: "ba-log", N: o.N, Model: memory.CC, Requests: o.Requests,
			Plan: indepPlan, RecordOps: true}, o.Seeds)
		if err1 != nil || err2 != nil {
			t.Add(k, "ERR", "-", "ERR", "-")
			continue
		}
		t.Add(k, mb.MaxDepth, mb.AffMean, mi.MaxDepth, mi.AffMean)
	}
	return t
}

// Components regenerates the O(1)-component claims (Theorems 4.7, 5.6):
// exact instruction and RMR counts of each building block, per passage.
func Components() *Table {
	t := &Table{
		Title:   "Component costs (Thm 4.7): exact per-passage RMRs of the O(1) building blocks",
		Columns: []string{"component", "model", "n", "max RMRs/passage", "mean"},
		Notes: []string{
			"wr: full Recover+Enter+CS+Exit passages under contention",
			"arbitrator: dual-port recoverable 2-party lock under contention",
			"splitter: one CAS plus one read (try) and one write (release)",
		},
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, n := range []int{2, 8, 32} {
			m, err := runSeeds(Point{Lock: "wr", N: n, Model: model, Requests: 6}, []int64{1, 2})
			if err != nil {
				t.Add("wr (filter)", model.String(), n, "ERR", "-")
				continue
			}
			t.Add("wr (filter)", model.String(), n, m.FFMax, m.FFMean)
		}
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		cfg := sim.Config{N: 2, Model: model, Requests: 15, Seed: 3}
		r, err := sim.New(cfg, func(sp memory.Space, n int) sim.Lock {
			return yalock.NewTwoProcess(sp, n)
		})
		if err != nil {
			t.Add("arbitrator", model.String(), 2, "ERR", "-")
			continue
		}
		res, err := r.Run()
		if err != nil {
			t.Add("arbitrator", model.String(), 2, "ERR", "-")
			continue
		}
		s := res.SummarizePassageRMRs(nil)
		t.Add("arbitrator", model.String(), 2, s.Max, s.Mean)
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		a := memory.NewArena(model, 2)
		sp := core.NewSplitter(a)
		p := a.Port(0, nil)
		before := a.RMRs(0)
		sp.Try(p)
		_ = sp.Mine(p)
		sp.Release(p)
		t.Add("splitter", model.String(), 2, a.RMRs(0)-before, float64(a.RMRs(0)-before))
	}
	return t
}

// Reclaim regenerates the Section 7.2 space-bound comparison: arena words
// consumed with and without reclamation as the workload grows.
func Reclaim(o Opts) *Table {
	o.fill()
	t := &Table{
		Title: "Memory reclamation (§7.2): shared-memory words vs workload length (wr, CC, n=8)",
		Columns: []string{"requests/process", "wr-fresh (fresh nodes)", "wr (Algorithm 4)",
			"wr-notify (DSM variant)"},
		Notes: []string{
			"with reclamation the footprint is fixed at initialization (bounded space);",
			"the notification variant adds the O(n²) registration/ack matrices",
		},
	}
	for _, reqs := range []int{5, 20, 80} {
		var cells []interface{}
		cells = append(cells, reqs)
		for _, lk := range []string{"wr-fresh", "wr", "wr-notify"} {
			m, err := Run(Point{Lock: lk, N: 8, Model: memory.CC, Requests: reqs, Seed: 1})
			if err != nil {
				cells = append(cells, "ERR")
				continue
			}
			cells = append(cells, m.Arena)
		}
		t.Add(cells...)
	}
	return t
}

// Responsiveness regenerates Theorem 4.2 empirically: the weakly
// recoverable lock's worst simultaneous CS occupancy against the number of
// injected unsafe failures.
func Responsiveness(o Opts) *Table {
	o.fill()
	t := &Table{
		Title:   "Responsiveness (Thm 4.2): WR-Lock CS occupancy vs unsafe failures (CC, n=8)",
		Columns: []string{"targeted unsafe failures", "max CS occupancy", "bound (failures+1)", "holds", "weak checks"},
	}
	for _, k := range []int{0, 1, 2, 3} {
		k := k
		plan := func(n int) sim.FailurePlan {
			var ps sim.PlanSeq
			for i := 0; i < k; i++ {
				ps = append(ps, &sim.CrashOnLabel{PID: i, Label: "wr:fas", After: true})
			}
			if len(ps) == 0 {
				return sim.NoFailures{}
			}
			return ps
		}
		pt := Point{Lock: "wr", N: 8, Model: memory.CC, Requests: o.Requests, Plan: plan, CSOps: 6}
		m, err := runSeeds(pt, o.Seeds)
		if err != nil {
			t.Add(k, "ERR", "-", "-", "-")
			continue
		}
		holds := "yes"
		if m.Overlap > k+1 {
			holds = "NO"
		}
		t.Add(k, m.Overlap, k+1, holds, checkCell(m.CheckErr))
	}
	return t
}

// Scale sweeps the failure-free cost of every lock family across n,
// exposing the complexity curves of Table 1's first column directly:
// O(1) for the framework locks, Θ(log n) for the tournament,
// Θ(log n/log log n) for the arbitration tree, Θ(n) for the bakery.
func Scale(o Opts) *Table {
	o.fill()
	t := &Table{
		Title: "Scale: failure-free mean RMRs per passage vs n (CC)",
		Columns: []string{"n", "mcs", "wr", "ba-log", "ba-sublog", "arbtree",
			"tournament", "bakery"},
		Notes: []string{
			"the framework locks (ba-*) stay constant; the bases grow with their T(n)",
		},
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		row := []interface{}{n}
		for _, lk := range []string{"mcs", "wr", "ba-log", "ba-sublog", "arbtree", "tournament", "bakery"} {
			m, err := runSeeds(Point{Lock: lk, N: n, Model: memory.CC, Requests: o.Requests}, o.Seeds)
			if err != nil {
				row = append(row, "ERR")
				continue
			}
			row = append(row, m.FFMean)
		}
		t.Add(row...)
	}
	return t
}
