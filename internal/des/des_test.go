package des

import (
	"strings"
	"testing"

	"rme/internal/check"
	"rme/internal/memory"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

// TestDeterminism pins the core guarantee: the same Config produces a
// bit-identical event trace — same hash, same latency distribution, same
// timestamps — run after run. CI runs this under -race as well.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Lock:     "ba-log",
		N:        6,
		Requests: 40,
		Seed:     42,
		Keys:     8,
		Arrival:  Arrival{Kind: Bursty, Rate: 200_000},
		Crashes:  Crashes{Kind: Storm, Budget: 12},
		Stragglers: Stragglers{
			Count: 1, Factor: 4, OnNs: 100_000, OffNs: 100_000,
		},
		RecordTrace: true,
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash diverged: %x vs %x", a.TraceHash, b.TraceHash)
	}
	if a.VirtualNs != b.VirtualNs || a.Passages != b.Passages || a.Crashes != b.Crashes {
		t.Fatalf("result diverged: %+v vs %+v", a, b)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace length diverged: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace[%d] diverged: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	c := mustRun(t, withSeed(cfg, 43))
	if c.TraceHash == a.TraceHash {
		t.Fatalf("different seeds produced identical traces (hash %x)", a.TraceHash)
	}
}

func withSeed(cfg Config, seed int64) Config {
	cfg.Seed = seed
	return cfg
}

// TestTraceMonotone checks virtual time never runs backwards and the
// recorded trace is time-ordered.
func TestTraceMonotone(t *testing.T) {
	res := mustRun(t, Config{
		N: 4, Requests: 30, Seed: 7, RecordTrace: true,
		Arrival: Arrival{Rate: 500_000},
	})
	last := int64(-1)
	for i, e := range res.Trace {
		if e.AtNs < last {
			t.Fatalf("trace[%d] at %d before %d", i, e.AtNs, last)
		}
		last = e.AtNs
	}
	if res.VirtualNs < last {
		t.Fatalf("VirtualNs %d before last event %d", res.VirtualNs, last)
	}
}

// TestPercentilesMonotone checks p50 ≤ p90 ≤ p99 ≤ max on both latency
// summaries — the invariant the CI des-gate asserts on BENCH_des.json.
func TestPercentilesMonotone(t *testing.T) {
	res := mustRun(t, Config{
		N: 8, Requests: 50, Seed: 3,
		Arrival: Arrival{Rate: 100_000},
	})
	for _, s := range []LatencySummary{res.Passage, res.Request} {
		if s.Count == 0 {
			t.Fatal("empty latency summary")
		}
		if !(s.P50Ns <= s.P90Ns && s.P90Ns <= s.P99Ns && s.P99Ns <= s.MaxNs) {
			t.Fatalf("percentiles not monotone: %+v", s)
		}
		if s.MeanNs <= 0 {
			t.Fatalf("non-positive mean: %+v", s)
		}
	}
}

// TestContentionKnee checks the latency model produces the qualitative
// trajectory the experiment plots: p50 passage latency under saturation
// is well above the uncontended p50, and low-rate throughput tracks the
// offered load.
func TestContentionKnee(t *testing.T) {
	low := mustRun(t, Config{N: 8, Requests: 60, Seed: 5, Arrival: Arrival{Rate: 2_000}})
	high := mustRun(t, Config{N: 8, Requests: 60, Seed: 5, Arrival: Arrival{Rate: 1_000_000}})
	if high.Passage.P50Ns < 3*low.Passage.P50Ns {
		t.Fatalf("no contention knee: low p50=%d, saturated p50=%d",
			low.Passage.P50Ns, high.Passage.P50Ns)
	}
	// 8 processes at 2k req/s each offer 16k/s; a healthy system serves
	// within 20% of that.
	offered := 8.0 * 2_000
	if low.ThroughputPerSec < 0.8*offered || low.ThroughputPerSec > 1.2*offered {
		t.Fatalf("low-rate throughput %0.f/s far from offered %0.f/s",
			low.ThroughputPerSec, offered)
	}
}

// TestCrashRegimes runs the uniform and storm failure regimes and checks
// mutual exclusion plus accounting: every delivered crash is observed,
// and crashed passages are excluded from the failure-free RMR median.
func TestCrashRegimes(t *testing.T) {
	for _, kind := range []CrashKind{Uniform, Storm} {
		res := mustRun(t, Config{
			N: 8, Requests: 40, Seed: 11,
			Arrival: Arrival{Rate: 100_000},
			Crashes: Crashes{Kind: kind, Budget: 20, MeanGapNs: 50_000, StormGapNs: 200_000},
		})
		if err := check.Strong(res.Sim, 1<<20); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if res.Crashes == 0 {
			t.Fatalf("kind %d: no crashes delivered", kind)
		}
		if res.Crashes != res.CrashedPassages {
			t.Fatalf("kind %d: %d crashes but %d crashed passages",
				kind, res.Crashes, res.CrashedPassages)
		}
		if res.RMRMedian == 0 {
			t.Fatalf("kind %d: zero RMR median", kind)
		}
	}
}

// TestKeyedRun exercises the Zipf keyspace: strong mutual exclusion per
// key must hold through crash storms, per-key stats must cover every
// completed passage, and rank 0 must be the hottest key.
func TestKeyedRun(t *testing.T) {
	res := mustRun(t, Config{
		N: 8, Requests: 60, Seed: 13, Keys: 16, ZipfS: 1.2,
		Arrival: Arrival{Rate: 200_000},
		Crashes: Crashes{Kind: Storm, Budget: 16, StormGapNs: 300_000},
	})
	// The global CS-overlap invariant does not apply — passages on
	// distinct keys overlap by design — so mutual exclusion is asserted
	// per key.
	if res.MaxKeyCSOverlap != 1 {
		t.Fatalf("per-key CS overlap = %d, want 1", res.MaxKeyCSOverlap)
	}
	total := 0
	for _, k := range res.PerKey {
		total += k.Passages
	}
	if total != res.Passages {
		t.Fatalf("per-key passages sum %d != total %d", total, res.Passages)
	}
	hot := res.PerKey[0]
	if hot.Key != 0 {
		t.Fatalf("first per-key entry is rank %d, want 0", hot.Key)
	}
	for _, k := range res.PerKey[1:] {
		if k.Passages > hot.Passages {
			t.Fatalf("rank %d saw %d passages, more than rank 0's %d",
				k.Key, k.Passages, hot.Passages)
		}
	}
}

// TestStragglers checks that slowing a process stretches its passages:
// the straggler's mean passage latency must exceed the healthy mean.
func TestStragglers(t *testing.T) {
	base := mustRun(t, Config{N: 4, Requests: 50, Seed: 17, Arrival: Arrival{Rate: 50_000}})
	slow := mustRun(t, Config{
		N: 4, Requests: 50, Seed: 17,
		Arrival:    Arrival{Rate: 50_000},
		Stragglers: Stragglers{Count: 1, Factor: 8},
	})
	if slow.Passage.MaxNs <= base.Passage.MaxNs {
		t.Fatalf("straggler max %d not above baseline max %d",
			slow.Passage.MaxNs, base.Passage.MaxNs)
	}
	if slow.VirtualNs <= base.VirtualNs {
		t.Fatalf("straggler run finished no later (%d vs %d)", slow.VirtualNs, base.VirtualNs)
	}
}

// TestDSMModel runs the DSM accounting model end to end.
func TestDSMModel(t *testing.T) {
	res := mustRun(t, Config{
		N: 4, Model: memory.DSM, Requests: 30, Seed: 19,
		Arrival: Arrival{Rate: 100_000},
	})
	if err := check.Strong(res.Sim, 1<<20); err != nil {
		t.Fatal(err)
	}
	if res.Passages != 4*30 {
		t.Fatalf("passages = %d, want %d", res.Passages, 4*30)
	}
}

// TestLevelOccupancy checks the BA-level accounting: with no failures
// every passage commits at level 1, and the occupancy integrates every
// passage's duration.
func TestLevelOccupancy(t *testing.T) {
	res := mustRun(t, Config{N: 8, Requests: 40, Seed: 23, Arrival: Arrival{Rate: 300_000}})
	if res.MaxLevel != 1 {
		t.Fatalf("failure-free max level = %d, want 1", res.MaxLevel)
	}
	if res.LevelHist[0] != int64(res.Passages) {
		t.Fatalf("level-1 passages %d != total %d", res.LevelHist[0], res.Passages)
	}
	if res.LevelNs[0] <= 0 {
		t.Fatal("zero level-1 occupancy")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero N", Config{Requests: 1}, "N ="},
		{"zero requests", Config{N: 1}, "Requests ="},
		{"negative keys", Config{N: 1, Requests: 1, Keys: -1}, "Keys ="},
		{"bad zipf", Config{N: 1, Requests: 1, Keys: 4, ZipfS: 0.5}, "ZipfS"},
		{"bad hold", Config{N: 1, Requests: 1, HoldNs: -1}, "HoldNs"},
		{"budget without kind", Config{N: 1, Requests: 1, Crashes: Crashes{Budget: 3}}, "crash budget"},
		{"kind without budget", Config{N: 1, Requests: 1, Crashes: Crashes{Kind: Uniform}}, "budget"},
		{"too many stragglers", Config{N: 2, Requests: 1, Stragglers: Stragglers{Count: 3, Factor: 2}}, "stragglers"},
		{"weak straggler", Config{N: 2, Requests: 1, Stragglers: Stragglers{Count: 1, Factor: 1}}, "factor"},
		{"one-sided phases", Config{N: 2, Requests: 1, Stragglers: Stragglers{Count: 1, Factor: 2, OnNs: 5}}, "OnNs and OffNs"},
		{"unknown lock", Config{Lock: "no-such-lock", N: 1, Requests: 1}, "no-such-lock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDefaults checks the zero-value Config (plus the required fields)
// fills to a runnable simulation.
func TestDefaults(t *testing.T) {
	res := mustRun(t, Config{N: 2, Requests: 5})
	if res.Passages != 10 {
		t.Fatalf("passages = %d, want 10", res.Passages)
	}
	if res.RMRMedian == 0 || res.VirtualNs == 0 || res.ThroughputPerSec == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Trace != nil {
		t.Fatal("trace recorded without RecordTrace")
	}
	if res.PerKey != nil {
		t.Fatal("per-key stats on a single-lock run")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s.Count != 0 || s.P99Ns != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}
