package sim

import (
	"strings"
	"testing"

	"rme/internal/memory"
)

// fasLock is a tiny lock whose Enter performs a labeled FAS, so sweep
// tests can verify RMW-after placements and sensitive-label prioritization
// without dragging in the real algorithms (which live above this package).
type fasLock struct {
	flag memory.Addr
}

func newFASLock(sp memory.Space, n int) Lock {
	return &fasLock{flag: sp.Alloc(1, memory.HomeNone)}
}

func (l *fasLock) Recover(p memory.Port) {}

func (l *fasLock) Enter(p memory.Port) {
	me := memory.Word(p.PID()) + 1
	if p.Read(l.flag) == me {
		return
	}
	for {
		p.Label("test:fas")
		if p.FAS(l.flag, me) == 0 {
			return
		}
		p.FAS(l.flag, 0) // not ours: put it back and retry (unfair but fine)
		p.Pause()
	}
}

func (l *fasLock) Exit(p memory.Port) {
	p.CAS(l.flag, memory.Word(p.PID())+1, 0)
}

func TestPlanSweepRejectsCustomPlanAndSched(t *testing.T) {
	if _, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.CC, Plan: NoFailures{}}}, newTAS); err == nil {
		t.Fatal("accepted a SweepConfig with a Plan")
	}
	if _, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.CC, Sched: &RoundRobin{}}}, newTAS); err == nil {
		t.Fatal("accepted a SweepConfig with a Sched")
	}
}

func TestPlanSweepEnumeratesBoundaries(t *testing.T) {
	sp, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.CC, Requests: 1, Seed: 7}}, newTAS)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Streams) != 2 {
		t.Fatalf("%d streams, want 2", len(sp.Streams))
	}
	// Every instruction boundary of every process gets a single-crash
	// placement (horizon 0 = full stream).
	want := map[CrashPoint]bool{}
	for pid, stream := range sp.Streams {
		if len(stream) == 0 {
			t.Fatalf("process %d executed no instructions", pid)
		}
		for k := range stream {
			want[CrashPoint{PID: pid, OpIndex: int64(k)}] = true
		}
	}
	got := map[CrashPoint]bool{}
	for _, pl := range sp.Placements {
		if len(pl.Points) == 1 {
			got[pl.Points[0]] = true
		}
	}
	for pt := range want {
		if !got[pt] {
			t.Fatalf("boundary %+v has no placement", pt)
		}
	}
}

func TestPlanSweepHorizonKeepsRMWAfters(t *testing.T) {
	full, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.CC, Requests: 2, Seed: 7}}, newFASLock)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.CC, Requests: 2, Seed: 7}, Horizon: 1}, newFASLock)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Placements) >= len(full.Placements) {
		t.Fatalf("horizon did not reduce placements (%d vs %d)", len(capped.Placements), len(full.Placements))
	}
	// Sensitive coverage must be horizon-independent: every executed RMW
	// still has an after-placement.
	for pid, stream := range capped.Streams {
		for k, op := range stream {
			if op.Kind != memory.OpFAS && op.Kind != memory.OpCAS {
				continue
			}
			if !capped.CoversAfter(pid, int64(k)) {
				t.Fatalf("capped sweep lost after-RMW coverage of p%d@%d (%v %s)", pid, k, op.Kind, op.Label)
			}
		}
	}
}

func TestPlanSweepPairs(t *testing.T) {
	sp, err := PlanSweep(SweepConfig{
		Config: Config{N: 3, Model: memory.CC, Requests: 1, Seed: 7},
		Pairs:  true,
	}, newFASLock)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []Placement
	for _, pl := range sp.Placements {
		if len(pl.Points) == 2 {
			pairs = append(pairs, pl)
		}
	}
	if len(pairs) == 0 {
		t.Fatal("Pairs produced no two-crash placements")
	}
	// Every pair of distinct after-RMW points is placed once.
	m := 0
	for _, stream := range sp.Streams {
		for _, op := range stream {
			if op.Kind == memory.OpFAS || op.Kind == memory.OpCAS {
				m++
			}
		}
	}
	if want := m * (m - 1) / 2; len(pairs) != want || sp.CrashPairs != want {
		t.Fatalf("%d pair placements, CrashPairs %d, want every one of %d pairs", len(pairs), sp.CrashPairs, m*(m-1)/2)
	}
	for _, pl := range pairs {
		a, b := pl.Points[0], pl.Points[1]
		if a == b {
			t.Fatalf("degenerate pair %v", pl)
		}
		if a.PID == b.PID && a.OpIndex >= b.OpIndex {
			t.Fatalf("same-pid pair not ordered: %v", pl)
		}
	}
	// The labeled FAS is sensitive; pairs are prioritized from it, so the
	// first pair must involve the sensitive label.
	if !strings.Contains(pairs[0].String(), "test:fas") {
		t.Fatalf("first pair %s does not target the sensitive FAS", pairs[0])
	}
}

func TestSweepRunPlacements(t *testing.T) {
	sp, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.DSM, Requests: 1, Seed: 3}}, newTAS)
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for i := range sp.Placements {
		res, err := sp.Run(i, newTAS)
		if err != nil {
			t.Fatalf("placement %d (%s): %v", i, sp.Placements[i], err)
		}
		// The TAS lock is strongly recoverable: every placement run must
		// satisfy all requests with at most one process in its CS.
		if got := len(res.Requests); got != 2 {
			t.Fatalf("placement %d: %d requests satisfied, want 2", i, got)
		}
		if res.MaxCSOverlap > 1 {
			t.Fatalf("placement %d: CS overlap %d", i, res.MaxCSOverlap)
		}
		crashed += res.CrashCount()
	}
	if crashed == 0 {
		t.Fatal("no placement actually injected a crash")
	}
	// Re-running a placement is deterministic and independent.
	r1, err := sp.Run(0, newTAS)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sp.Run(0, newTAS)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != r2.Steps || r1.CrashCount() != r2.CrashCount() {
		t.Fatal("re-running a placement diverged")
	}
	if _, err := sp.Run(len(sp.Placements), newTAS); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}

// TestSweepPlacementCrashesWhereTold: each single placement that fires does
// so at exactly the planned (pid, opIndex).
func TestSweepPlacementCrashesWhereTold(t *testing.T) {
	sp, err := PlanSweep(SweepConfig{Config: Config{N: 2, Model: memory.CC, Requests: 1, Seed: 11}}, newTAS)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i, pl := range sp.Placements {
		res, err := sp.Run(i, newTAS)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Crashes {
			if c.PID != pl.Points[0].PID || c.OpIndex != pl.Points[0].OpIndex {
				t.Fatalf("placement %s crashed at (p%d, op %d)", pl, c.PID, c.OpIndex)
			}
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no crashes fired")
	}
}
