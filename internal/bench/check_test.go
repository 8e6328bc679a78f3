package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckRepoReports: the checked-in BENCH_*.json files hold every gate,
// the cross-report anchor included.
func TestCheckRepoReports(t *testing.T) {
	names, _ := repoReports(t)
	bad, err := Check(names...)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Error(v)
	}
}

// mutations breaks each gate, keyed "experiment/gate", by changing the
// checked-in report of that experiment; each must trip its gate.
var mutations = map[string]func(r *Report){
	"metrics/rows":          func(r *Report) { r.Results = nil },
	"metrics/ff-solo-exact": func(r *Report) { r.Results[0].RMRMedian = soloRMRs - 1 },
	// Row 1 is F = 0, row 5 F = 2 (bound 2).
	"metrics/depth-bound":         func(r *Report) { r.Results[1].MaxLevel, r.Results[5].MaxLevel = 2, 3 },
	"metrics/path-accounting":     func(r *Report) { r.Results[4].FastPath++ },
	"metrics/recovery-accounting": func(r *Report) { r.Results[4].Recoveries = 0 },

	"abort/sane":               func(r *Report) { r.Results[1].RMRMedian = 0 },
	"abort/attempt-accounting": func(r *Report) { r.Results[2].Attempts++ },
	"abort/rate0-no-aborts":    func(r *Report) { r.Results[0].Aborted = 1 },
	"abort/abort-delivery":     func(r *Report) { r.Results[1].Aborted = 0 },

	"map/hot-rows": func(r *Report) {
		for i := range r.Results {
			if r.Results[i].Mode == "hot" {
				r.Results[i].Mode = "warm"
			}
		}
	},
	"map/zipf-skew":      func(r *Report) { r.Results[1].ZipfS = 1 },
	"map/churn-recycles": func(r *Report) { r.Results[2].Recycled = 0 },
	"map/slot-words":     func(r *Report) { r.Results[3].SlotWords -= 8 },
	"map/metrics-anchor": func(r *Report) { r.Results[0].RMRMedian = 63 },

	"des/locks":           func(r *Report) { r.Results[0].Lock = "ba-other" },
	"des/regimes":         func(r *Report) { r.Results[10].Regime = "slow" },
	"des/sane":            func(r *Report) { r.Results[1].Throughput = 0 },
	"des/percentiles":     func(r *Report) { r.Results[1].P50Ns = r.Results[1].P90Ns + 1 },
	"des/key-exclusion":   func(r *Report) { r.Results[8].MaxKeyOverlap = 2 },
	"des/crash-delivery":  func(r *Report) { r.Results[6].Crashes = 0 },
	"des/abort-delivery":  func(r *Report) { r.Results[9].AbortedPassages = 0 },
	"des/aborts-confined": func(r *Report) { r.Results[1].AbortedPassages = 1 },
	"des/ff-level":        func(r *Report) { r.Results[1].MaxLevel = 2 },
	"des/anchor-exact":    func(r *Report) { r.Results[0].RMRMedian = soloRMRs + 1 },

	"tracing/sane": func(r *Report) { r.Results[0].Mode = "full" },
	// The upper median of four off rows moves only when two of them do.
	"tracing/off-overhead": func(r *Report) { r.Results[1].OverheadPct, r.Results[4].OverheadPct = 6, 6 },
}

// TestCheckGateMutations: every gate has a mutation, and every mutation
// of a checked-in report is caught by its gate — so removing or loosening
// a gate fails this test.
func TestCheckGateMutations(t *testing.T) {
	for exp, gs := range gates {
		for _, g := range gs {
			if mutations[exp+"/"+g.name] == nil {
				t.Errorf("gate %s/%s has no mutation", exp, g.name)
			}
		}
	}
	// The rows gate is common to every schema; metrics exercises it.
	if mutations["metrics/"+rowsGate.name] == nil {
		t.Error("the rows gate has no mutation")
	}
	for key, mutate := range mutations {
		exp, _, _ := strings.Cut(key, "/")
		names, reps := repoReports(t)
		for _, rep := range reps {
			if rep.experiment() == exp {
				mutate(rep)
			}
		}
		got := runGates(names, reps)
		caught := false
		for _, v := range got {
			caught = caught || strings.Contains(v, ": "+key+": ")
		}
		if !caught {
			t.Errorf("mutation of %s not caught; violations: %q", key, got)
		}
	}
}

// TestCheckErrors: unreadable, malformed, ungated and duplicate inputs
// are errors, not verdicts.
func TestCheckErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	metrics := write("m.json", `{"schema": "rme-bench-metrics/v1", "results": []}`)
	for name, files := range map[string][]string{
		"missing":   {filepath.Join(dir, "missing.json")},
		"malformed": {write("bad.json", "{")},
		"ungated":   {write("table.json", `{"schema": "rme-bench-table/v1"}`)},
		"duplicate": {metrics, metrics},
	} {
		if _, err := Check(files...); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
