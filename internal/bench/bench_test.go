package bench

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
)

func TestRunBasics(t *testing.T) {
	m, err := Run(Point{Lock: "wr", N: 4, Model: memory.CC, Requests: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Passages != 12 || m.Crashes != 0 || m.Overlap != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.FFMax <= 0 || m.FFMean <= 0 || m.ReqMean <= 0 {
		t.Fatalf("zero RMR metrics: %+v", m)
	}
	if m.CheckErr != nil {
		t.Fatalf("weak checks failed: %v", m.CheckErr)
	}
}

func TestRunUnknownLock(t *testing.T) {
	if _, err := Run(Point{Lock: "nope", N: 2, Model: memory.CC}); err == nil {
		t.Fatal("expected error for unknown lock")
	}
}

func TestRunWithFailures(t *testing.T) {
	plan := func(n int) sim.FailurePlan {
		return &sim.FailureBudget{Total: 3, Rate: 0.05}
	}
	m, err := Run(Point{Lock: "ba-log", N: 8, Model: memory.CC, Requests: 3, Seed: 2, Plan: plan, RecordOps: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3", m.Crashes)
	}
	if m.CheckErr != nil {
		t.Fatalf("strong checks failed: %v", m.CheckErr)
	}
	if m.MaxDepth < 1 {
		t.Fatalf("depth = %d", m.MaxDepth)
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	m, err := RunSeeds(Point{Lock: "tournament", N: 4, Model: memory.DSM, Requests: 2}, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Passages != 3*8 {
		t.Fatalf("aggregated passages = %d, want 24", m.Passages)
	}
	if m.FFMean <= 0 {
		t.Fatalf("mean = %f", m.FFMean)
	}
	// Empty seeds default to one run.
	m2, err := RunSeeds(Point{Lock: "tournament", N: 2, Model: memory.CC, Requests: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Passages != 2 {
		t.Fatalf("default-seed passages = %d", m2.Passages)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tb.Add(1, 2.5)
	tb.Add("xyz", "w")
	s := tb.String()
	for _, want := range []string{"== demo ==", "a    bb", "xyz", "2.5", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFitSqrt(t *testing.T) {
	xs := []float64{1, 4, 9, 16}
	ys := []float64{3, 6, 9, 12} // exactly 3·√x
	c, resid := FitSqrt(xs, ys)
	if c < 2.99 || c > 3.01 {
		t.Fatalf("c = %f, want 3", c)
	}
	if resid > 0.001 {
		t.Fatalf("resid = %f, want ~0", resid)
	}
	if c, _ := FitSqrt(nil, nil); c != 0 {
		t.Fatalf("empty fit c = %f", c)
	}
	// A constant series fits √ badly.
	_, resid2 := FitSqrt([]float64{1, 4, 9, 16, 25, 36}, []float64{5, 5, 5, 5, 5, 5})
	if resid2 < 0.1 {
		t.Fatalf("constant series fit √ too well: resid %f", resid2)
	}
}

// TestFigure1Output: the figure draws the queue and its summary agrees
// with the largest sub-queue count drawn, at seed 21 and seeds 1–8 (all
// draw fragmentation) and at seed 13 (one chain), so both wordings are
// checked.
func TestFigure1Output(t *testing.T) {
	drawn := regexp.MustCompile(`: (\d+) sub-queue\(s\)`)
	fragmented, chains := 0, 0
	for _, seed := range []int64{21, 1, 2, 3, 4, 5, 6, 7, 8, 13} {
		out := Figure1(seed)
		for _, want := range []string{"Figure 1", "sub-queue", "head →", "starvation freedom"} {
			if !strings.Contains(out, want) {
				t.Fatalf("seed %d: Figure1 output missing %q:\n%s", seed, want, out)
			}
		}
		most := 0
		for _, m := range drawn.FindAllStringSubmatch(out, -1) {
			if q, _ := strconv.Atoi(m[1]); q > most {
				most = q
			}
		}
		want := "no drawn moment showed two sub-queues"
		if most >= 2 {
			want = "despite fragmentation"
			fragmented++
		} else {
			chains++
		}
		if !strings.Contains(out, want) || strings.Contains(out, "despite fragmentation") != (most >= 2) {
			t.Errorf("seed %d: drew at most %d sub-queue(s), summary should say %q:\n%s", seed, most, want, out)
		}
	}
	if fragmented == 0 {
		t.Error("no seed drew fragmentation; the despite-fragmentation summary went untested")
	}
	if chains == 0 {
		t.Error("every seed drew fragmentation; the one-chain summary went untested")
	}
}

// TestFigure1CountsFailuresAtFAS: a crash after the FAS can split the
// queue into at most one more sub-queue (Theorem 4.2), so every line
// Figure 1 prints must show no more sub-queues than failures + 1. A
// failure whose FAS has run but whose crash is not yet delivered counts.
func TestFigure1CountsFailuresAtFAS(t *testing.T) {
	line := regexp.MustCompile(`\((\d+) unsafe failures so far\): (\d+) sub-queue`)
	for seed := int64(1); seed <= 50; seed++ {
		for _, m := range line.FindAllStringSubmatch(Figure1(seed), -1) {
			failures, _ := strconv.Atoi(m[1])
			queues, _ := strconv.Atoi(m[2])
			if queues > failures+1 {
				t.Errorf("seed %d: %q: %d sub-queues after %d failures", seed, m[0], queues, failures)
			}
		}
	}
}

func TestFigure2Output(t *testing.T) {
	out := Figure2(11)
	for _, want := range []string{"Figure 2", "filter", "arbitrator", "properties: ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure2 output missing %q:\n%s", want, out)
		}
	}
}

func TestResponsivenessTable(t *testing.T) {
	tb := Responsiveness(Opts{N: 8, Requests: 3, Seeds: []int64{1}})
	s := tb.String()
	if strings.Contains(s, "NO") || strings.Contains(s, "VIOLATION") || strings.Contains(s, "ERR") {
		t.Fatalf("responsiveness table reports violations:\n%s", s)
	}
}

func TestComponentsTable(t *testing.T) {
	s := Components().String()
	if strings.Contains(s, "ERR") {
		t.Fatalf("components table has errors:\n%s", s)
	}
}
