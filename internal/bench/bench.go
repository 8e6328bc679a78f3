// Package bench is the experiment harness that regenerates the paper's
// tables and figures (see DESIGN.md's experiment index). It runs the
// registered locks on the simulator under controlled failure scenarios,
// aggregates exact RMR counts, and renders plain-text tables.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// Point is one measurement configuration.
type Point struct {
	Lock     string
	N        int
	Model    memory.Model
	Requests int
	Seed     int64
	Plan     func(n int) sim.FailurePlan // nil: no failures
	CSOps    int
	MaxSteps int64
	// RecordOps enables escalation-depth extraction (needed only when
	// the lock has slow labels).
	RecordOps bool
}

// Metrics aggregates one run.
type Metrics struct {
	Crashes  int
	Overlap  int
	Steps    int64
	Arena    int
	Passages int
	FFMax    int64   // max RMRs over failure-free passages
	FFMean   float64 // mean RMRs over failure-free passages
	AllMax   int64   // max RMRs over all passages
	AffMax   int64   // max RMRs over passages overlapping a failure's consequence interval
	AffMean  float64 // mean over the same set (0 when no failures)
	ReqMean  float64 // mean RMRs per super-passage
	MaxDepth int     // deepest escalation level reached (1 = none)
	CheckErr error
}

// Run executes one measurement point and validates the lock's contract
// (ME for strong locks, responsiveness for weak ones). Validation
// failures are reported in Metrics.CheckErr, not as a run error.
func Run(pt Point) (Metrics, error) {
	spec, err := workload.Lookup(pt.Lock)
	if err != nil {
		return Metrics{}, err
	}
	cfg := sim.Config{
		N:         pt.N,
		Model:     pt.Model,
		Requests:  pt.Requests,
		Seed:      pt.Seed,
		CSOps:     pt.CSOps,
		MaxSteps:  pt.MaxSteps,
		RecordOps: pt.RecordOps,
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 20_000_000
	}
	if pt.Plan != nil {
		cfg.Plan = pt.Plan(pt.N)
	}
	r, err := sim.New(cfg, spec.New)
	if err != nil {
		return Metrics{}, err
	}
	res, err := r.Run()
	if err != nil {
		return Metrics{}, fmt.Errorf("bench: %s n=%d %v seed=%d: %w", pt.Lock, pt.N, pt.Model, pt.Seed, err)
	}

	ff := res.SummarizePassageRMRs(func(p sim.PassageStat) bool { return !p.Crashed })
	all := res.SummarizePassageRMRs(nil)
	req := res.SummarizeRequestRMRs()
	ivs := check.ConsequenceIntervals(res)
	aff := res.SummarizePassageRMRs(func(p sim.PassageStat) bool {
		for _, iv := range ivs {
			if p.StartSeq <= iv.End && p.EndSeq >= iv.Start {
				return true
			}
		}
		return false
	})
	m := Metrics{
		Crashes:  res.CrashCount(),
		Overlap:  res.MaxCSOverlap,
		Steps:    res.Steps,
		Arena:    res.ArenaWords,
		Passages: len(res.Passages),
		FFMax:    ff.Max,
		FFMean:   ff.Mean,
		AllMax:   all.Max,
		AffMax:   aff.Max,
		AffMean:  aff.Mean,
		ReqMean:  req.Mean,
		MaxDepth: 1,
	}
	if pt.RecordOps && spec.Levels != nil {
		m.MaxDepth = check.MaxDepth(res, spec.SlowLabels(pt.N))
	}
	m.CheckErr = spec.Check(res)
	return m, nil
}

// RunSeeds averages a point over several seeds (the plan is rebuilt per
// run). Max-style metrics take the maximum, mean-style metrics the mean.
func RunSeeds(pt Point, seeds []int64) (Metrics, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var agg Metrics
	for i, s := range seeds {
		pt.Seed = s
		m, err := Run(pt)
		if err != nil {
			return Metrics{}, err
		}
		if i == 0 {
			agg = m
			continue
		}
		agg.Crashes += m.Crashes
		agg.Passages += m.Passages
		agg.Steps += m.Steps
		if m.Overlap > agg.Overlap {
			agg.Overlap = m.Overlap
		}
		if m.FFMax > agg.FFMax {
			agg.FFMax = m.FFMax
		}
		if m.AllMax > agg.AllMax {
			agg.AllMax = m.AllMax
		}
		if m.AffMax > agg.AffMax {
			agg.AffMax = m.AffMax
		}
		agg.AffMean += m.AffMean
		if m.MaxDepth > agg.MaxDepth {
			agg.MaxDepth = m.MaxDepth
		}
		agg.FFMean += m.FFMean
		agg.ReqMean += m.ReqMean
		if agg.CheckErr == nil {
			agg.CheckErr = m.CheckErr
		}
	}
	agg.FFMean /= float64(len(seeds))
	agg.ReqMean /= float64(len(seeds))
	agg.AffMean /= float64(len(seeds))
	agg.Crashes /= len(seeds)
	return agg, nil
}

// Table renders rows of aligned columns as plain text.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row; cells are stringified with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String implements fmt.Stringer.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// FitSqrt reports how well ys ≈ c·√xs by least squares, returning the
// coefficient and the normalized residual (0 = perfect fit).
func FitSqrt(xs []float64, ys []float64) (c float64, resid float64) {
	var num, den float64
	for i := range xs {
		sx := math.Sqrt(xs[i])
		num += sx * ys[i]
		den += sx * sx
	}
	if den == 0 {
		return 0, 0
	}
	c = num / den
	var ss, tot float64
	for i := range xs {
		d := ys[i] - c*math.Sqrt(xs[i])
		ss += d * d
		tot += ys[i] * ys[i]
	}
	if tot == 0 {
		return c, 0
	}
	return c, math.Sqrt(ss / tot)
}

// JSON renders the table as a machine-readable object: the rmebench -json
// mode emits this for every experiment so results can be archived and
// diffed across commits (the BENCH_*.json workflow in EXPERIMENTS.md).
// Cells stay strings — they are already formatted for human-stable diffs.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Schema  string     `json:"schema"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{
		Schema:  "rme-bench-table/v1",
		Title:   t.Title,
		Columns: t.Columns,
		Rows:    t.Rows,
		Notes:   t.Notes,
	}, "", "  ")
}
