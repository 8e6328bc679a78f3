package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoReports decodes the checked-in BENCH_*.json files at the
// repository root, in file-name order.
func repoReports(t *testing.T) (names []string, reps []*Report) {
	t.Helper()
	names, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(names) == 0 {
		t.Fatalf("no checked-in reports: %v", err)
	}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := new(Report)
		if err := json.Unmarshal(raw, rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reps = append(reps, rep)
	}
	return names, reps
}

// TestReportSchemasStable: every checked-in report decodes into Report
// and re-encodes byte for byte — one Row type carries each schema's
// exact field set, order and number formatting.
func TestReportSchemasStable(t *testing.T) {
	names, reps := repoReports(t)
	seen := map[string]bool{}
	for i, rep := range reps {
		seen[rep.experiment()] = true
		raw, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := os.ReadFile(names[i])
		if !bytes.Equal(append(raw, '\n'), want) {
			t.Errorf("%s does not round-trip through Report", names[i])
		}
		assertRowArity(t, names[i], rep.Table())
	}
	for exp := range gates {
		if !seen[exp] {
			t.Errorf("no checked-in BENCH_%s.json", exp)
		}
	}
	for exp, spec := range tables {
		for _, c := range spec.cols {
			if _, ok := rowFields[c]; !ok {
				t.Errorf("%s table column %q is no Row field", exp, c)
			}
		}
	}
	if tb := (&Report{Schema: "rme-bench-nope/v1"}).Table(); tb.Title != "unknown report schema rme-bench-nope/v1" {
		t.Errorf("unknown schema table titled %q", tb.Title)
	}
}

// TestDriveExactPassages: drive runs exactly the requested iterations,
// the first passages%workers pids taking one extra.
func TestDriveExactPassages(t *testing.T) {
	for _, c := range []struct{ workers, passages int }{{8, 100}, {3, 2}, {1, 7}, {4, 0}} {
		per := make([]int, c.workers)
		drive(c.workers, c.passages, func(pid, i int) {
			if i != per[pid] {
				t.Errorf("pid %d ran iteration %d out of order", pid, i)
			}
			per[pid]++
		})
		for pid, n := range per {
			want := c.passages / c.workers
			if pid < c.passages%c.workers {
				want++
			}
			if n != want {
				t.Errorf("workers=%d passages=%d: pid %d ran %d, want %d", c.workers, c.passages, pid, n, want)
			}
		}
	}
}

// TestPassageRemainderCounted is the regression test for the dropped
// remainder: 100 passages over 8 workers used to run 96 while the rows
// reported 100. Every map row must complete exactly 100 passages, and the
// churn mode must touch exactly its 100 keys. The simulated reports run
// passages/workers requests per process, so they refuse the split
// instead of reporting passages that did not run.
func TestPassageRemainderCounted(t *testing.T) {
	o := ReportOpts{Workers: 8, Passages: 100, ChurnKeys: 100}
	rep, err := MapCost(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Passages != 100 {
			t.Errorf("%s %s workers=%d: %d passages, want 100", r.Lock, r.Mode, r.Workers, r.Passages)
		}
		if r.Mode == "churn" && (r.DistinctKeys != 100 || r.Keys != 100) {
			t.Errorf("%s churn: %d distinct of %d keys, want 100 of 100", r.Lock, r.DistinctKeys, r.Keys)
		}
	}
	for name, exp := range map[string]func(ReportOpts) (*Report, error){"metrics": PassageMetrics, "abort": AbortCost} {
		if _, err := exp(o); err == nil || !strings.Contains(err.Error(), "100 passages do not split evenly over 8 workers") {
			t.Errorf("%s: err = %v, want an uneven-split error", name, err)
		}
	}
}

// TestReportsDeterministic: the simulated reports are functions of the
// seed, so two runs encode byte for byte alike, with one OS thread or
// many.
func TestReportsDeterministic(t *testing.T) {
	o := ReportOpts{Workers: 4, Passages: 200}
	for name, exp := range map[string]func(ReportOpts) (*Report, error){"metrics": PassageMetrics, "abort": AbortCost} {
		var docs [][]byte
		for _, procs := range []int{0, 0, 1} {
			prev := runtime.GOMAXPROCS(procs)
			rep, err := exp(o)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, raw)
		}
		for i := 1; i < len(docs); i++ {
			if !bytes.Equal(docs[0], docs[i]) {
				t.Errorf("%s: run %d differs from run 0:\n%s\n---\n%s", name, i, docs[0], docs[i])
			}
		}
	}
}
