package bench

import (
	"fmt"
	"strings"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// Opts sizes the experiments. Zero values select defaults tuned to finish
// in seconds on one core.
type Opts struct {
	N        int     // processes (default 16)
	Requests int     // satisfied requests per process (default 5)
	Failures int     // the "F failures" scenario budget (default N)
	Seeds    []int64 // seeds to average over (default 1..3)
}

func (o *Opts) fill() {
	if o.N == 0 {
		o.N = 16
	}
	if o.Requests == 0 {
		o.Requests = 5
	}
	if o.Failures == 0 {
		o.Failures = o.N
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
}

func checkCell(err error) string {
	if err != nil {
		return "VIOLATION: " + err.Error()
	}
	return "ok"
}

// Table1 regenerates the paper's Table 1 empirically: for every
// implemented lock, the measured RMRs per passage under the three failure
// scenarios, on both memory models.
func Table1(o Opts) []*Table {
	o.fill()
	locks := []string{"wr", "bakery", "tournament", "arbtree", "sa-bakery", "sa", "ba-log", "ba-sublog"}
	var out []*Table
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		t := &Table{
			Title:   fmt.Sprintf("Table 1 (measured, %v model, n=%d): RMRs per passage", model, o.N),
			Columns: []string{"algorithm", "scenario", "crashes", "ff-mean", "ff-max", "all-max", "properties"},
			Notes: []string{
				"ff-*: failure-free passages only; all-max: including crashed passages",
				"paper columns — wr: O(1)/O(1)/O(1) (weak); bakery: Θ(n) flat (read/write only);",
				"tournament: O(log n) flat; arbtree: O(log n/log log n) flat (CC);",
				"sa-bakery: O(1)/O(n) (the GR §4.2 row's shape); sa: O(1)/O(T(n));",
				"ba-*: O(1)/O(√F)/O(T(n)) — the paper's contribution",
			},
		}
		for _, lk := range locks {
			for _, sc := range workload.Scenarios(o.Failures) {
				pt := Point{Lock: lk, N: o.N, Model: model, Requests: o.Requests, Plan: sc.Plan}
				m, err := RunSeeds(pt, o.Seeds)
				if err != nil {
					t.Add(lk, sc.Name, "-", "-", "-", "-", "ERROR: "+err.Error())
					continue
				}
				t.Add(lk, sc.Name, m.Crashes, m.FFMean, m.FFMax, m.AllMax, checkCell(m.CheckErr))
			}
		}
		out = append(out, t)
	}
	return out
}

// Table2 regenerates the paper's Table 2: each lock's empirical
// classification against the performance measures of Section 2.5.
func Table2(o Opts) *Table {
	o.fill()
	t := &Table{
		Title: "Table 2 (measured): performance-measure classification",
		Columns: []string{"algorithm", "ff-max n=4", "ff-max n=32", "PM1 const?",
			"heavy-max n=4", "heavy-max n=32", "PM3 bounded?", "classification"},
		Notes: []string{
			"PM1: failure-free RMRs constant in n; PM3: RMRs bounded under arbitrarily many failures",
			"adaptiveness (PM2) is measured by the adaptivity sweep (√F fit)",
		},
	}
	heavy := func(n int) sim.FailurePlan {
		return &sim.RandomFailures{Rate: 0.01, MaxPerProcess: 4, DuringPassage: true}
	}
	class := map[string]string{
		"wr":         "weakly recoverable, O(1) everywhere",
		"bakery":     "non-adaptive, read/write only (Θ(n))",
		"tournament": "bounded non-adaptive",
		"arbtree":    "well-bounded non-adaptive (CC)",
		"sa-bakery":  "semi-adaptive (GR §4.2 shape)",
		"sa":         "bounded semi-adaptive",
		"ba-log":     "bounded super-adaptive",
		"ba-sublog":  "well-bounded super-adaptive",
	}
	for _, lk := range []string{"wr", "bakery", "tournament", "arbtree", "sa-bakery", "sa", "ba-log", "ba-sublog"} {
		var ff [2]int64
		var hv [2]int64
		bad := false
		for i, n := range []int{4, 32} {
			m, err := RunSeeds(Point{Lock: lk, N: n, Model: memory.CC, Requests: o.Requests}, o.Seeds)
			if err != nil {
				bad = true
				break
			}
			ff[i] = m.FFMax
			mh, err := RunSeeds(Point{Lock: lk, N: n, Model: memory.CC, Requests: o.Requests, Plan: heavy}, o.Seeds)
			if err != nil {
				bad = true
				break
			}
			hv[i] = mh.AllMax
		}
		if bad {
			t.Add(lk, "-", "-", "-", "-", "-", "-", "ERROR")
			continue
		}
		pm1 := "yes"
		if float64(ff[1]) > 1.25*float64(ff[0])+2 {
			pm1 = "no"
		}
		// PM3 is boundedness in the number of *failures*: under heavy
		// failures the worst passage must stay within a constant factor
		// of the failure-free worst passage at the same n (an unbounded
		// lock's cost keeps growing with every crash).
		pm3 := "yes"
		if float64(hv[1]) > 3*float64(ff[1])+8 {
			pm3 = "no"
		}
		t.Add(lk, ff[0], ff[1], pm1, hv[0], hv[1], pm3, class[lk])
	}
	return t
}

// Figure1 reproduces the sub-queue fragmentation diagram: eight processes
// queue on the weakly recoverable lock; two of them crash immediately
// after their sensitive FAS, splitting the queue into sub-queues.
func Figure1(seed int64) string {
	var lck *core.WRLock
	factory := func(sp memory.Space, n int) sim.Lock {
		lck = workload.Registry()["wr"].New(sp, n).(*core.WRLock)
		return lck
	}
	plan := sim.PlanSeq{
		&sim.CrashOnLabel{PID: 3, Label: "wr:fas", After: true},
		&sim.CrashOnLabel{PID: 6, Label: "wr:fas", After: true},
	}
	var sb strings.Builder
	sb.WriteString("== Figure 1 (reproduced): queue fragmentation after unsafe failures ==\n")
	sb.WriteString("processes p0..p7 append via FAS; p3 and p6 crash immediately after their FAS\n\n")
	best := 0
	crashes := 0
	cfg := sim.Config{
		N: 8, Model: memory.CC, Requests: 2, Seed: seed, Plan: plan, CSOps: 8,
		OnEvent: func(ev sim.Event, a *memory.Arena) {
			if ev.Kind == sim.EvCrash {
				crashes++
			}
			if ev.Kind != sim.EvCrash && ev.Kind != sim.EvCSEnter {
				return
			}
			qs := lck.SubQueues(a)
			if len(qs) > best {
				best = len(qs)
				fmt.Fprintf(&sb, "t=%d (%d unsafe failures so far): %d sub-queue(s)\n", ev.Seq, crashes, len(qs))
				for _, q := range qs {
					owners := make([]string, len(q.Owners))
					for i, o := range q.Owners {
						owners[i] = fmt.Sprintf("p%d", o)
					}
					tailMark := ""
					if q.AtTail {
						tailMark = "   ← tail"
					}
					fmt.Fprintf(&sb, "    head → %s%s\n", strings.Join(owners, " → "), tailMark)
				}
			}
		},
	}
	r, err := sim.New(cfg, factory)
	if err != nil {
		return err.Error()
	}
	res, err := r.Run()
	if err != nil {
		fmt.Fprintf(&sb, "run error: %v\n", err)
		return sb.String()
	}
	fmt.Fprintf(&sb, "\nall %d requests satisfied despite fragmentation (starvation freedom, Thm 4.3)\n", len(res.Requests))
	fmt.Fprintf(&sb, "max simultaneous CS occupancy: %d with %d unsafe failures (responsiveness, Thm 4.2: occupancy ≤ failures+1)\n",
		res.MaxCSOverlap, res.CrashCount())
	return sb.String()
}

// Figure2 renders the SA-Lock composition and traces fast/slow routing
// after an unsafe failure (Figure 2 of the paper).
func Figure2(seed int64) string {
	var sb strings.Builder
	sb.WriteString("== Figure 2 (reproduced): the semi-adaptive framework ==\n\n")
	sb.WriteString("            ┌────────┐     fast path      ┌────────────┐\n")
	sb.WriteString("  ──enter──▶│ filter │──▶ splitter ──────▶│ arbitrator │──▶ CS\n")
	sb.WriteString("            │  (WR)  │        │ slow      │ (dual-port)│\n")
	sb.WriteString("            └────────┘        ▼           └────────────┘\n")
	sb.WriteString("                          core lock ─────────▶ (right port)\n\n")

	plan := &sim.CrashOnLabel{PID: 0, Label: "F1:fas", After: true}
	pt := Point{Lock: "sa", N: 8, Model: memory.CC, Requests: 3, Plan: func(int) sim.FailurePlan { return plan },
		RecordOps: true, CSOps: 4}
	pt.Seed = seed
	m, err := Run(pt)
	if err != nil {
		return sb.String() + err.Error()
	}
	fmt.Fprintf(&sb, "trace (n=8, one unsafe failure at the filter FAS):\n")
	fmt.Fprintf(&sb, "  crashes=%d  max CS occupancy=%d  escalated-to-slow-path depth=%d\n",
		m.Crashes, m.Overlap, m.MaxDepth)
	fmt.Fprintf(&sb, "  properties: %s\n", checkCell(m.CheckErr))
	return sb.String()
}

// Figure3 renders the recursive BA-Lock structure and an escalation trace
// (Figure 3 of the paper).
func Figure3(o Opts) string {
	o.fill()
	var sb strings.Builder
	sb.WriteString("== Figure 3 (reproduced): the recursive super-adaptive framework ==\n\n")
	b := workload.Registry()["ba-log"].New(memory.NewArena(memory.CC, o.N), o.N).(*core.BALock)
	sb.WriteString(b.Describe())
	sb.WriteString("\nescalation trace: x(x-1)/2 unsafe failures aimed at levels 1..x-1 (Thm 5.17's ladder)\n")
	for x := 1; x <= b.Levels()+1 && x <= 4; x++ {
		var plans sim.PlanSeq
		total := 0
		for k := 1; k < x; k++ {
			// x-k unsafe failures at level k's filter.
			k := k
			plans = append(plans, &sim.UnsafeBudget{
				Total:         x - k,
				MaxPerProcess: 1,
				Rate:          0.3,
				Match:         func(l string) bool { return l == fmt.Sprintf("F%d:fas", k) },
			})
			total += x - k
		}
		var plan func(int) sim.FailurePlan
		if len(plans) > 0 {
			plan = func(int) sim.FailurePlan { return plans }
		}
		pt := Point{Lock: "ba-log", N: o.N, Model: memory.CC, Requests: 3 + total/4, RecordOps: true,
			CSOps: 4, Plan: plan, Seed: 5}
		m, err := Run(pt)
		if err != nil {
			fmt.Fprintf(&sb, "  budget %d: error %v\n", total, err)
			continue
		}
		fmt.Fprintf(&sb, "  %d unsafe failure(s) aimed at levels 1..%d → injected %d, deepest level %d (bound %d; ME: %s)\n",
			total, x-1, m.Crashes, m.MaxDepth, x, checkCell(m.CheckErr))
	}
	return sb.String()
}

// Ablation measures the price of each property the construction stacks on
// top of plain MCS: bounded exit (mcs-dt), weak recoverability (wr-fresh),
// bounded space through §7.2's node pools (wr), strong recoverability +
// semi-adaptivity (sa), and full super-adaptivity (ba-log) — all in the
// failure-free regime the paper's O(1) claims cover.
func Ablation(o Opts) *Table {
	o.fill()
	t := &Table{
		Title:   fmt.Sprintf("Ablation: failure-free RMRs per passage as properties are added (n=%d)", o.N),
		Columns: []string{"lock", "adds", "CC mean", "CC max", "DSM mean", "DSM max"},
		Notes: []string{
			"every step keeps O(1) failure-free cost; the constant grows with each property",
		},
	}
	rows := []struct{ lock, adds string }{
		{"mcs", "(baseline queue lock)"},
		{"mcs-dt", "bounded exit"},
		{"wr-fresh", "weak recoverability"},
		{"wr", "bounded space (§7.2 node pool)"},
		{"sa", "strong recoverability, semi-adaptive"},
		{"ba-log", "super-adaptive (m levels)"},
	}
	for _, r := range rows {
		cells := []interface{}{r.lock, r.adds}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			m, err := RunSeeds(Point{Lock: r.lock, N: o.N, Model: model, Requests: o.Requests}, o.Seeds)
			if err != nil {
				cells = append(cells, "ERR", "-")
				continue
			}
			cells = append(cells, m.FFMean, m.FFMax)
		}
		t.Add(cells...)
	}
	return t
}
