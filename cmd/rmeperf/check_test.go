package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// noLock is a deliberately non-exclusive lock: every worker walks into
// the critical section of whatever index it asked for.
type noLock struct{}

func (noLock) pass(w *worker) outcome {
	w.k = w.rank
	w.csFn()
	return passOK
}

// violations runs noLock on w until the checker reports a problem or
// the attempts run out.
func violations(t *testing.T, w workload) []string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	chk := newChecker(w)
	ranks := drawRanks(w, 7)
	for range 10 {
		if _, err := runPhase(noLock{}, ranks, chk, nil, windows(0, 100*time.Millisecond, 1)); err != nil {
			t.Fatal(err)
		}
		if p := chk.problems(); len(p) > 0 {
			return p
		}
	}
	return nil
}

func TestCheckerCatchesNonExclusiveLock(t *testing.T) {
	pair, _ := workloadByName("mutex-pair")
	p := violations(t, pair)
	if len(p) == 0 || !strings.Contains(p[0], "mutual exclusion violated") {
		t.Errorf("mutex-pair under a non-exclusive lock: problems %q, want a mutual-exclusion violation", p)
	}
}

func TestCheckerCatchesSharedKey(t *testing.T) {
	zipf, _ := workloadByName("map-zipf")
	p := violations(t, zipf)
	if len(p) == 0 || !strings.Contains(p[0], "mutual exclusion violated") {
		t.Errorf("map-zipf under a non-exclusive lock: problems %q, want a per-key violation", p)
	}
}

// liar misreports its attempts: skipCS claims a passage without running
// the critical section, fakeCrash claims every other attempt crashed
// though nothing was injected.
type liar struct{ skipCS, fakeCrash bool }

func (l liar) pass(w *worker) outcome {
	w.k = 0
	if l.fakeCrash && w.attempts%2 == 1 {
		return passCrashed
	}
	if !l.skipCS {
		w.csFn()
	}
	return passOK
}

func TestAttemptPartitionCheck(t *testing.T) {
	solo, _ := workloadByName("mutex-solo")
	for _, tc := range []struct {
		name string
		v    target
		want string
	}{
		{"passage without CS", liar{skipCS: true}, "critical sections"},
		{"crash nobody injected", liar{fakeCrash: true}, "injected crashes"},
	} {
		_, err := runPhase(tc.v, drawRanks(solo, 7), newChecker(solo), newFaultPlan(7, 0), count(50))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want the partition check to mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := runPhase(liar{}, drawRanks(solo, 7), newChecker(solo), nil, count(50)); err != nil {
		t.Errorf("honest target: %v", err)
	}
}

func TestJoinBoolValues(t *testing.T) {
	got := joinBoolValues([]string{"--workload", "mutex-solo", "--trace", "0", "-json", "--seconds", "1", "-smoke", "true"},
		"trace", "json", "smoke")
	want := []string{"--workload", "mutex-solo", "-trace=0", "-json", "--seconds", "1", "-smoke=true"}
	if !slices.Equal(got, want) {
		t.Errorf("joinBoolValues = %q, want %q", got, want)
	}
}

// A contract metric with no value — a median of no windows, a share of
// nothing — is a problem, and the last line stays valid JSON without it.
func TestUnmeasuredContractMetric(t *testing.T) {
	solo, _ := workloadByName("mutex-solo")
	r := &result{workload: solo}
	r.add(fromSummary("rmr_p50", "RMRs", summarize(nil)))
	r.add(single("rmr_p99", "RMRs", math.Inf(1), 0, "samples"))
	r.add(single("footprint_words", "words", 2728, 1, "lock"))
	r.add(single("setup_s", "s", 0.07, 10, "set-ups"))
	r.requireContract()
	want := []string{"metric rmr_p50 not measured", "metric rmr_p99 not measured"}
	if !slices.Equal(r.problems, want) {
		t.Errorf("problems = %q, want %q", r.problems, want)
	}
	var out bytes.Buffer
	if err := writeContract(&out, r); err != nil {
		t.Fatal(err)
	}
	var last struct {
		Correct bool
		Metrics map[string]any
	}
	if err := json.Unmarshal(out.Bytes(), &last); err != nil || last.Correct || len(last.Metrics) != 2 {
		t.Errorf("last line %q (%v): want correct false and the 2 measured metrics", out.String(), err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload in both passes the way the acceptance
// driver does, and checks the last line: correct, and carrying exactly
// the metrics, with the units, that BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if w, ok := workloadByName(sw.Name); !ok || w.why != sw.Why {
			t.Errorf("BENCHMARK.json workload %q (why %q) is not one of %s as the code describes it", sw.Name, sw.Why, workloadNames())
		}
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace, "-smoke"}, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%s: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, last line %+v\n%s%s", w.name, trace, code, last, out.String(), errOut.String())
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v), want unit %q", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
