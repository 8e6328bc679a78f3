package sim

import (
	"testing"

	"rme/internal/memory"
)

// labeledLock is a test-and-set lock that issues the core package's
// label vocabulary so MetricsSnapshot's label reconstruction can be
// checked deterministically: every Enter emits a splitter try and a
// filter FAS, and odd pids commit to level 1's slow path.
type labeledLock struct{ flag memory.Addr }

func newLabeled(sp memory.Space, n int) Lock {
	return &labeledLock{flag: sp.Alloc(1, memory.HomeNone)}
}

func (l *labeledLock) Recover(p memory.Port) {}

func (l *labeledLock) Enter(p memory.Port) {
	p.Label("F1:try")
	p.CAS(l.flag, 0, 0) // labelled no-op attempt
	p.Label("F1:fas")
	p.FAS(l.flag, uint64(p.PID())+1) // rme:nonsensitive(test lock; overwritten below)
	if p.PID()%2 == 1 {
		p.Label("F1:slow")
		p.Write(l.flag, uint64(p.PID())+1)
	}
	for {
		p.CAS(l.flag, 0, uint64(p.PID())+1)
		if p.Read(l.flag) == uint64(p.PID())+1 {
			return
		}
		p.Pause()
	}
}

func (l *labeledLock) Exit(p memory.Port) {
	p.CAS(l.flag, uint64(p.PID())+1, 0)
}

func TestMetricsSnapshotFromOps(t *testing.T) {
	res := run(t, Config{N: 2, Model: memory.CC, Requests: 3, Seed: 7, RecordOps: true}, newLabeled)
	s := res.MetricsSnapshot(2)

	if s.Passages != 6 {
		t.Fatalf("passages = %d, want 6", s.Passages)
	}
	if s.Crashes != 0 || s.Recoveries != 0 {
		t.Fatalf("unexpected failures: %+v", s)
	}
	// pid 0's 3 passages stay level 1; pid 1's 3 escalate to level 2.
	if s.FastPath != 3 || s.SlowPath != 3 {
		t.Fatalf("fast=%d slow=%d, want 3/3", s.FastPath, s.SlowPath)
	}
	if s.LevelHist[0] != 3 || s.LevelHist[1] != 3 {
		t.Fatalf("level hist %v, want [3 3]", s.LevelHist)
	}
	if s.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d, want 2", s.MaxLevel())
	}
	if s.SplitterTries != 6 || s.FilterFAS != 6 {
		t.Fatalf("tries=%d fas=%d, want 6/6", s.SplitterTries, s.FilterFAS)
	}
	if uint64(res.TotalRMRs) != s.RMRs {
		t.Fatalf("RMRs = %d, want TotalRMRs %d", s.RMRs, res.TotalRMRs)
	}
	if s.RMRHist.Total() != s.Passages {
		t.Fatalf("hist holds %d passages, want %d", s.RMRHist.Total(), s.Passages)
	}
}

func TestMetricsSnapshotWithoutOps(t *testing.T) {
	res := run(t, Config{N: 2, Model: memory.CC, Requests: 2, Seed: 7}, newLabeled)
	s := res.MetricsSnapshot(2)

	if s.Passages != 4 {
		t.Fatalf("passages = %d, want 4", s.Passages)
	}
	// Label-derived fields degrade to zero without the instruction stream.
	if s.FastPath != 0 || s.SlowPath != 0 || len(s.LevelHist) != 0 {
		t.Fatalf("label-derived fields populated without RecordOps: %+v", s)
	}
	if s.RMRs == 0 || s.Ops == 0 {
		t.Fatalf("totals missing: %+v", s)
	}
}

func TestMetricsSnapshotCrashes(t *testing.T) {
	cfg := Config{
		N: 2, Model: memory.CC, Requests: 2, Seed: 11, RecordOps: true,
		Plan: &RandomFailures{Rate: 0.05, MaxTotal: 3, DuringPassage: true},
	}
	res := run(t, cfg, newLabeled)
	s := res.MetricsSnapshot(2)

	if s.Crashes == 0 {
		t.Fatalf("plan injected no crashes")
	}
	if s.Crashes != uint64(len(res.Crashes)) {
		t.Fatalf("crashes = %d, want %d", s.Crashes, len(res.Crashes))
	}
	if s.Recoveries == 0 {
		t.Fatalf("no recovery passages despite crashes")
	}
	if s.Passages != 4 {
		t.Fatalf("completed passages = %d, want 4", s.Passages)
	}
	// Totals include crashed fragments; the histogram does not.
	if s.RMRHist.Total() != s.Passages {
		t.Fatalf("hist holds %d, want %d", s.RMRHist.Total(), s.Passages)
	}
	if uint64(res.TotalRMRs) != s.RMRs {
		t.Fatalf("RMRs = %d, want %d", s.RMRs, res.TotalRMRs)
	}
}

// TestMetricsSnapshotRecoveries counts recoveries as the native recorder
// does, one per passage start that follows a crash: two crashes of one
// process in one request are two recoveries, and an abort is none.
func TestMetricsSnapshotRecoveries(t *testing.T) {
	for _, c := range []struct {
		name                string
		plan                FailurePlan
		crashes, recoveries uint64
	}{
		// p0 crashes before its first CAS, restarts, and crashes again
		// before the retry's CAS.
		{"two crashes", &CrashSet{Points: []CrashPoint{{PID: 0, OpIndex: 1}, {PID: 0, OpIndex: 2}}}, 2, 2},
		{"one abort", &AbortSet{Points: []CrashPoint{{PID: 0, OpIndex: 1}}}, 0, 0},
	} {
		res := run(t, Config{N: 1, Model: memory.CC, Requests: 1, Seed: 1, Plan: c.plan}, newAbortTAS)
		s := res.MetricsSnapshot(1)
		if s.Passages != 1 || s.Crashes != c.crashes || s.Recoveries != c.recoveries {
			t.Errorf("%s: passages=%d crashes=%d recoveries=%d, want 1, %d, %d",
				c.name, s.Passages, s.Crashes, s.Recoveries, c.crashes, c.recoveries)
		}
		if c.crashes == 0 && s.Aborted != 1 {
			t.Errorf("%s: aborted=%d, want 1", c.name, s.Aborted)
		}
	}
}
