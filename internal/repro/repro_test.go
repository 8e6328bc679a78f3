package repro

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/sim"
)

// tasLock is a correct strongly recoverable test-and-set lock; runs on it
// record passing artifacts (Property == "").
type tasLock struct{ flag memory.Addr }

func newTAS(sp memory.Space, n int) sim.Lock {
	return &tasLock{flag: sp.Alloc(1, memory.HomeNone)}
}

func (l *tasLock) Recover(p memory.Port) {}

func (l *tasLock) Enter(p memory.Port) {
	me := uint64(p.PID()) + 1
	if p.Read(l.flag) == me {
		return
	}
	for !p.CAS(l.flag, 0, me) {
		p.Pause()
	}
}

func (l *tasLock) Exit(p memory.Port) {
	p.CAS(l.flag, uint64(p.PID())+1, 0)
}

// brokenLock performs no synchronization: the seeded violation every
// record → shrink → replay test drives through the pipeline.
type brokenLock struct{ w memory.Addr }

func newBroken(sp memory.Space, n int) sim.Lock {
	return &brokenLock{w: sp.Alloc(1, memory.HomeNone)}
}

func (l *brokenLock) Recover(p memory.Port) {}
func (l *brokenLock) Enter(p memory.Port)   { p.Read(l.w) }
func (l *brokenLock) Exit(p memory.Port)    { p.Read(l.w) }

func brokenSpec() RunSpec {
	return RunSpec{
		Lock:     "fixture-broken",
		Strength: StrengthStrong,
		Config: sim.Config{N: 4, Model: memory.CC, Requests: 3, Seed: 42,
			CSOps: 2, MaxSteps: 1 << 20,
			Plan: &sim.RandomFailures{Rate: 0.01, MaxTotal: 3, DuringPassage: true}},
		Note: "seeded mutual-exclusion violation fixture",
	}
}

// TestRecordShrinkReplayEndToEnd is the acceptance pipeline: a seeded
// violation is recorded, shrunk strictly smaller, serialized, re-read and
// replayed deterministically to the same verdict.
func TestRecordShrinkReplayEndToEnd(t *testing.T) {
	art, res, err := Record(brokenSpec(), newBroken)
	if err != nil {
		t.Fatal(err)
	}
	if art.Property != check.PropMutualExclusion {
		t.Fatalf("recorded property %q, want %q", art.Property, check.PropMutualExclusion)
	}
	if art.Violation == "" {
		t.Fatal("artifact carries no violation message")
	}
	if int64(len(art.Decisions)) != res.Steps {
		t.Fatalf("%d decisions for %d grants", len(art.Decisions), res.Steps)
	}

	shrunk := Shrink(art, newBroken)
	if shrunk.Cost() >= art.Cost() {
		t.Fatalf("shrink did not reduce cost: %d -> %d", art.Cost(), shrunk.Cost())
	}
	if shrunk.Property != art.Property {
		t.Fatalf("shrink changed property to %q", shrunk.Property)
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := shrunk.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.String() != shrunk.String() || len(loaded.Decisions) != len(shrunk.Decisions) {
		t.Fatalf("round trip changed artifact: %s vs %s", loaded, shrunk)
	}

	rr, err := Replay(loaded, newBroken)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Reproduced(loaded) {
		t.Fatalf("replay observed %q, artifact records %q", rr.Property, loaded.Property)
	}

	// Replaying twice is bit-exact.
	rr2, err := Replay(loaded, newBroken)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result.Steps != rr2.Result.Steps || rr.Result.CrashCount() != rr2.Result.CrashCount() {
		t.Fatal("second replay diverged")
	}
}

// TestReplayBitExactAgainstRecording: an unshrunk artifact replays the
// recorded run exactly, crashes included.
func TestReplayBitExactAgainstRecording(t *testing.T) {
	spec := brokenSpec()
	spec.Config.RecordOps = true
	art, res, err := Record(spec, newBroken)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Replay(art, newBroken)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result.Steps != res.Steps || rr.Result.TotalRMRs != res.TotalRMRs ||
		rr.Result.CrashCount() != res.CrashCount() ||
		rr.Result.MaxCSOverlap != res.MaxCSOverlap {
		t.Fatalf("replay diverged from recording: steps %d/%d crashes %d/%d",
			rr.Result.Steps, res.Steps, rr.Result.CrashCount(), res.CrashCount())
	}
}

// TestRecordPassingRun: a correct lock records an artifact with no
// property, and Shrink leaves it untouched.
func TestRecordPassingRun(t *testing.T) {
	spec := brokenSpec()
	spec.Lock = "fixture-tas"
	art, _, err := Record(spec, newTAS)
	if err != nil {
		t.Fatal(err)
	}
	if art.Property != "" || art.Violation != "" {
		t.Fatalf("passing run recorded property %q violation %q", art.Property, art.Violation)
	}
	if got := Shrink(art, newTAS); got != art {
		t.Fatal("Shrink modified a passing artifact")
	}
}

func TestDecodeRejectsBadArtifacts(t *testing.T) {
	good, _, err := Record(brokenSpec(), newBroken)
	if err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		f    func(a *Artifact)
		want string
	}{
		{"format", func(a *Artifact) { a.Format = "tarball" }, "not a repro artifact"},
		{"version", func(a *Artifact) { a.Version = Version + 1 }, "unsupported artifact version"},
		// Before version 3 the registry names denoted pool-free recipes, so
		// such an artifact would replay a different lock.
		{"version-1", func(a *Artifact) { a.Version = 1 }, "registry names denote the shipped pooled recipes"},
		{"version-2", func(a *Artifact) { a.Version = 2 }, "registry names denote the shipped pooled recipes"},
		{"n", func(a *Artifact) { a.N = 0 }, "invalid process count"},
		{"strength", func(a *Artifact) { a.Strength = "medium" }, "unknown strength"},
		{"model", func(a *Artifact) { a.Model = "TSO" }, "unknown memory model"},
		{"crash-pid", func(a *Artifact) { a.Crashes = []sim.CrashPoint{{PID: a.N, OpIndex: 1}} }, "out of range"},
		{"crash-op", func(a *Artifact) { a.Crashes = []sim.CrashPoint{{PID: 0, OpIndex: -1}} }, "negative crash op index"},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			bad := clone(good)
			m.f(bad)
			var buf bytes.Buffer
			if err := bad.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := Decode(&buf)
			if err == nil || !strings.Contains(err.Error(), m.want) {
				t.Fatalf("Decode(%s) = %v, want %q", m.name, err, m.want)
			}
		})
	}
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Fatal("Decode accepted malformed JSON")
	}
}

func TestReplayValidates(t *testing.T) {
	if _, err := Replay(&Artifact{Format: "x"}, newTAS); err == nil {
		t.Fatal("Replay accepted an invalid artifact")
	}
}
