package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"rme"
)

// soloRMRs is the exact median cost, in CC-model RMRs, of a failure-free
// passage by one uncontended process on either shipped lock. Alone, a
// passage is one fixed instruction sequence, so the median does not
// depend on the passage count, the seed or the backend, and the DES
// anchor rows simulate the same recipe.
const soloRMRs = 15

// A gate is one named assertion over a report, returning one detail per
// violation. A gate with a ref reads that experiment's report too, and is
// skipped unless it is among the inputs.
type gate struct {
	name  string
	ref   string
	check func(rep, ref *Report) []string
}

// gates lists each report schema's gates, keyed by experiment; runGates adds
// the rows gate to every schema.
var gates = map[string][]gate{
	"metrics": {
		every("ff-solo-exact", fmt.Sprintf("rmr_median == %d", soloRMRs), false,
			func(r Row) bool { return r.Failures == 0 && r.Workers == 1 },
			func(r Row) bool { return r.RMRMedian == soloRMRs }),
		// Theorem 5.17: reaching level x takes x(x-1)/2 unsafe failures;
		// at F = 0 no passage leaves level 1.
		every("depth-bound", "max_level <= ⌊(1+√(1+8F))/2⌋", false, nil,
			func(r Row) bool { return r.MaxLevel <= depthBound(r.Failures) }),
		every("path-accounting", "fast_path + slow_path == passages", false, nil,
			func(r Row) bool { return r.FastPath+r.SlowPath == r.Passages }),
		// Every crashed process restarts, and its next passage recovers.
		every("recovery-accounting", "recoveries == crashes", false, nil,
			func(r Row) bool { return r.Recoveries == r.Crashes }),
	},
	"abort": {
		every("sane", "workers > 0, rate >= 0, rmr_median > 0", false, nil,
			func(r Row) bool { return r.Workers > 0 && r.Rate >= 0 && r.RMRMedian > 0 }),
		every("attempt-accounting", "attempts == passages + aborted", false, nil,
			func(r Row) bool { return r.Attempts == r.Passages+r.Aborted }),
		every("rate0-no-aborts", "rate-0 rows, with aborted == 0", true,
			func(r Row) bool { return r.Rate == 0 },
			func(r Row) bool { return r.Aborted == 0 }),
		every("abort-delivery", "rate > 0 rows, with aborted > 0", true,
			func(r Row) bool { return r.Rate > 0 },
			func(r Row) bool { return r.Aborted > 0 }),
	},
	"map": {
		every("hot-rows", "hot rows", true, func(r Row) bool { return r.Mode == "hot" }, nil),
		every("zipf-skew", "zipf rows, with zipf_s > 1", true,
			func(r Row) bool { return r.Mode == "zipf" },
			func(r Row) bool { return r.ZipfS > 1 }),
		every("churn-recycles", "churn rows, with recycled > 0, evictions > 0 and footprint_words < distinct_keys * slot_words", true,
			func(r Row) bool { return r.Mode == "churn" },
			func(r Row) bool {
				return r.Recycled > 0 && r.Evictions > 0 && r.FootprintWords < r.DistinctKeys*r.SlotWords
			}),
		every("slot-words", "slot_words == rme.NewMap(workers, base).SlotWords() for the row's lock", false, nil,
			func(r Row) bool { return r.SlotWords == mapSlotWords(r.Lock, r.Workers) }),
		anchored("metrics-anchor", "rmr_median <= 2x the metrics F=0 median",
			func(r Row) bool { return r.Mode == "hot" },
			func(r, base Row) bool { return r.RMRMedian <= 2*base.RMRMedian }),
	},
	"des": {
		exactly("locks", func(r Row) string { return r.Lock }, "ba-log", "ba-sublog"),
		exactly("regimes", func(r Row) string { return r.Regime },
			"abort", "anchor", "crash-storm", "crash-uniform", "ramp", "straggler", "zipf"),
		every("sane", "passages > 0, throughput_per_sec > 0, rmr_median > 0", false, nil,
			func(r Row) bool { return r.Passages > 0 && r.Throughput > 0 && r.RMRMedian > 0 }),
		every("percentiles", "p50_ns <= p90_ns <= p99_ns", false, nil,
			func(r Row) bool { return r.P50Ns <= r.P90Ns && r.P90Ns <= r.P99Ns }),
		every("key-exclusion", "max_key_cs_overlap == 1", false, nil,
			func(r Row) bool { return r.MaxKeyOverlap == 1 }),
		every("crash-delivery", "crash rows, with crashes > 0 and crashes == crashed_passages", true,
			func(r Row) bool { return r.Regime == "crash-uniform" || r.Regime == "crash-storm" },
			func(r Row) bool { return r.Crashes > 0 && r.Crashes == uint64(r.CrashedPassages) }),
		every("abort-delivery", "abort rows, with aborted_passages > 0", true,
			func(r Row) bool { return r.Regime == "abort" },
			func(r Row) bool { return r.AbortedPassages > 0 }),
		every("aborts-confined", "aborted_passages == 0 outside the abort regime", false,
			func(r Row) bool { return r.Regime != "abort" },
			func(r Row) bool { return r.AbortedPassages == 0 }),
		// Aborted attempts abandon splitter slots, so the abort regime may
		// legitimately escalate.
		every("ff-level", "max_level == 1", false,
			func(r Row) bool { return r.Failures == 0 && r.Regime != "abort" },
			func(r Row) bool { return r.MaxLevel == 1 }),
		every("anchor-exact", fmt.Sprintf("anchor rows, with rmr_median == %d", soloRMRs), true,
			func(r Row) bool { return r.Regime == "anchor" },
			func(r Row) bool { return r.RMRMedian == soloRMRs }),
	},
	"tracing": {
		every("sane", "mode none, off or on, ns_per_passage > 0, passages_per_sec > 0", false, nil,
			func(r Row) bool {
				return slices.Contains(tracingModes, r.Mode) && r.NsPerPassage > 0 && r.PassagesPerSec > 0
			}),
		// A present-but-disabled recorder is one atomic flag load per event
		// site. Single rows may wobble on shared machines; the median (the
		// upper one for even counts) may not.
		{name: "off-overhead", check: func(rep, _ *Report) []string {
			var off []float64
			for _, r := range rep.Results {
				if r.Mode == "off" {
					off = append(off, r.OverheadPct)
				}
			}
			if len(off) == 0 {
				return []string{"want off rows"}
			}
			slices.Sort(off)
			if med := off[len(off)/2]; med > 5 {
				return []string{fmt.Sprintf("median off overhead_pct %.2f, want <= 5", med)}
			}
			return nil
		}},
	},
}

// mapSlotWords is the region size, in words, of a Map for workers
// processes on the named native lock, or -1 when there is no such Map.
func mapSlotWords(lock string, workers int) int {
	for _, lk := range nativeLocks {
		if lk.name == lock {
			if m, err := rme.NewMap(workers, lk.opts...); err == nil {
				return m.SlotWords()
			}
		}
	}
	return -1
}

// rowsGate applies to every schema: a report measures something.
var rowsGate = every("rows", "at least one row", true, nil, nil)

// every asserts ok on each row sel selects (every row when sel is nil);
// with need, sel must select at least one. want describes the assertion.
func every(name, want string, need bool, sel, ok func(Row) bool) gate {
	return gate{name: name, check: func(rep, _ *Report) []string {
		var bad []string
		n := 0
		for i, r := range rep.Results {
			if sel != nil && !sel(r) {
				continue
			}
			n++
			if ok != nil && !ok(r) {
				bad = append(bad, fmt.Sprintf("%s: want %s", rowID(i, r), want))
			}
		}
		if need && n == 0 {
			bad = append(bad, "no rows; want "+want)
		}
		return bad
	}}
}

// anchored asserts that for each row sel selects, some F=0 row of the
// metrics report with the same lock and worker count satisfies ok.
func anchored(name, want string, sel func(Row) bool, ok func(r, base Row) bool) gate {
	return gate{name: name, ref: "metrics", check: func(rep, ref *Report) []string {
		var bad []string
		for i, r := range rep.Results {
			match := func(b Row) bool {
				return b.Failures == 0 && b.Lock == r.Lock && b.Workers == r.Workers && ok(r, b)
			}
			if sel(r) && !slices.ContainsFunc(ref.Results, match) {
				bad = append(bad, fmt.Sprintf("%s: want %s", rowID(i, r), want))
			}
		}
		return bad
	}}
}

// exactly asserts that field takes exactly the values want (sorted) over
// the report's rows.
func exactly(name string, field func(Row) string, want ...string) gate {
	return gate{name: name, check: func(rep, _ *Report) []string {
		var got []string
		for _, r := range rep.Results {
			if v := field(r); !slices.Contains(got, v) {
				got = append(got, v)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return []string{fmt.Sprintf("values %q, want %q", got, want)}
		}
		return nil
	}}
}

func rowID(i int, r Row) string {
	id := fmt.Sprintf("row %d", i)
	for _, s := range []string{r.Lock, r.Mode, r.Regime} {
		if s != "" {
			id += " " + s
		}
	}
	return fmt.Sprintf("%s workers=%d", id, r.Workers)
}

// Check validates BENCH_*.json files against the gates of their schemas
// and returns one "FILE: experiment/gate: detail" line per violation. The
// cross-report anchor (map against metrics) applies when a metrics report
// is among the files.
func Check(files ...string) ([]string, error) {
	reps := make([]*Report, len(files))
	seen := map[string]bool{}
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep := new(Report)
		if err := json.Unmarshal(raw, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if gates[rep.experiment()] == nil {
			return nil, fmt.Errorf("%s: no gates for schema %q", f, rep.Schema)
		}
		if seen[rep.Schema] {
			return nil, fmt.Errorf("%s: a second %s report", f, rep.Schema)
		}
		seen[rep.Schema] = true
		reps[i] = rep
	}
	return runGates(files, reps), nil
}

// runGates runs every gate over reps, labelled by names.
func runGates(names []string, reps []*Report) []string {
	byExp := map[string]*Report{}
	for _, rep := range reps {
		byExp[rep.experiment()] = rep
	}
	var out []string
	for i, rep := range reps {
		exp := rep.experiment()
		for _, g := range append([]gate{rowsGate}, gates[exp]...) {
			ref := byExp[g.ref]
			if g.ref != "" && ref == nil {
				continue
			}
			for _, d := range g.check(rep, ref) {
				out = append(out, fmt.Sprintf("%s: %s/%s: %s", names[i], exp, g.name, d))
			}
		}
	}
	return out
}
