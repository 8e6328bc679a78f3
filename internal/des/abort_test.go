package des

import (
	"strings"
	"testing"

	"rme/internal/check"
	"rme/internal/workload"
)

// TestAbortIdentity drives deadline-abort traffic through the engine and
// asserts the accounting identity the abort CI gate pins on the native
// path — Attempts == Passages + Aborted + CrashedAttempts — holds under
// virtual time too, with aborts actually delivered.
func TestAbortIdentity(t *testing.T) {
	cfg := Config{
		Lock:     "ba-log",
		N:        6,
		Requests: 30,
		Seed:     7,
		Arrival:  Arrival{Kind: Poisson, Rate: 1_000_000},
		Aborts:   Aborts{DeadlineNs: 20_000},
	}
	res := mustRun(t, cfg)
	if err := check.Strong(res.Sim, 1<<20); err != nil {
		t.Fatalf("property check under abort traffic: %v", err)
	}
	if res.AbortedPassages == 0 {
		t.Fatal("deadline regime delivered no aborts; deadline or rate mistuned")
	}
	spec, err := workload.Lookup(cfg.Lock)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Sim.MetricsSnapshot(spec.Levels(cfg.N))
	if got := int(snap.Aborted); got != res.AbortedPassages {
		t.Fatalf("collector counted %d aborted passages, snapshot %d", res.AbortedPassages, got)
	}
	if snap.Attempts != snap.Passages+snap.Aborted+snap.CrashedAttempts {
		t.Fatalf("identity broken: attempts=%d passages=%d aborted=%d crashed=%d",
			snap.Attempts, snap.Passages, snap.Aborted, snap.CrashedAttempts)
	}
	// Every process still gets every request satisfied: aborts retry.
	if want := cfg.N * cfg.Requests; res.Request.Count != want {
		t.Fatalf("%d satisfied requests, want %d", res.Request.Count, want)
	}
	// Deadline-abort runs stay deterministic.
	again := mustRun(t, cfg)
	if again.TraceHash != res.TraceHash || again.AbortedPassages != res.AbortedPassages {
		t.Fatalf("abort run not deterministic: %x/%d vs %x/%d",
			res.TraceHash, res.AbortedPassages, again.TraceHash, again.AbortedPassages)
	}
}

// TestAbortWithCrashes mixes deadline aborts with a uniform crash
// schedule: the identity must still balance when both failure modes close
// attempts.
func TestAbortWithCrashes(t *testing.T) {
	cfg := Config{
		Lock:     "ba-log",
		N:        5,
		Requests: 25,
		Seed:     11,
		Arrival:  Arrival{Kind: Poisson, Rate: 800_000},
		Aborts:   Aborts{DeadlineNs: 25_000},
		Crashes:  Crashes{Kind: Uniform, Budget: 8, MeanGapNs: 20_000},
	}
	res := mustRun(t, cfg)
	if err := check.Weak(res.Sim); err != nil {
		t.Fatalf("property check: %v", err)
	}
	spec, err := workload.Lookup(cfg.Lock)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Sim.MetricsSnapshot(spec.Levels(cfg.N))
	if snap.Attempts != snap.Passages+snap.Aborted+snap.CrashedAttempts {
		t.Fatalf("identity broken: attempts=%d passages=%d aborted=%d crashed=%d",
			snap.Attempts, snap.Passages, snap.Aborted, snap.CrashedAttempts)
	}
	if res.Crashes == 0 {
		t.Fatal("crash schedule fired nothing")
	}
}

// TestAbortKeyed runs deadline aborts over a Zipf keyspace: the Keyspace
// facade forwards the back-out to the pinned key's lock and clears the
// pin, so mutual exclusion per key survives abort traffic.
func TestAbortKeyed(t *testing.T) {
	cfg := Config{
		Lock:     "ba-log",
		N:        6,
		Requests: 20,
		Seed:     3,
		Keys:     2,
		ZipfS:    2.5,
		Arrival:  Arrival{Kind: Poisson, Rate: 1_000_000},
		Aborts:   Aborts{DeadlineNs: 10_000},
	}
	res := mustRun(t, cfg)
	if res.MaxKeyCSOverlap > 1 {
		t.Fatalf("per-key CS overlap %d under abort traffic", res.MaxKeyCSOverlap)
	}
	if res.AbortedPassages == 0 {
		t.Fatal("keyed deadline regime delivered no aborts")
	}
	if want := cfg.N * cfg.Requests; res.Request.Count != want {
		t.Fatalf("%d satisfied requests, want %d", res.Request.Count, want)
	}
}

// TestAbortValidation: negative deadlines are rejected, and abort traffic
// over a keyspace whose recipe cannot back out is refused rather than
// silently corrupting queue state.
func TestAbortValidation(t *testing.T) {
	_, err := Run(Config{Lock: "ba-log", N: 2, Requests: 1,
		Aborts: Aborts{DeadlineNs: -1}})
	if err == nil || !strings.Contains(err.Error(), "abort deadline") {
		t.Fatalf("negative deadline accepted: %v", err)
	}
	// mcs implements no abort protocol; a keyed run must refuse the knob.
	_, err = Run(Config{Lock: "mcs", N: 2, Requests: 1, Keys: 4,
		Arrival: Arrival{Kind: Poisson, Rate: 100_000},
		Aborts:  Aborts{DeadlineNs: 10_000}})
	if err == nil || !strings.Contains(err.Error(), "abortable") {
		t.Fatalf("non-abortable keyed run accepted: %v", err)
	}
}
