package sim

import (
	"strings"
	"testing"

	"rme/internal/memory"
)

// abortTAS extends tasLock with a crash-idempotent back-out, making it the
// minimal Aborter fixture: releasing means clearing the flag word iff it
// still holds our pid, which is safe to re-run from any point.
type abortTAS struct {
	tasLock
}

func newAbortTAS(sp memory.Space, n int) Lock {
	return &abortTAS{tasLock{flag: sp.Alloc(1, memory.HomeNone)}}
}

func (l *abortTAS) Abort(p memory.Port) {
	p.CAS(l.flag, uint64(p.PID())+1, 0)
}

func TestAbortSetDeliversAtExactPoint(t *testing.T) {
	pt := CrashPoint{PID: 1, OpIndex: 0}
	res := run(t, Config{
		N: 2, Model: memory.CC, Requests: 2, Seed: 11,
		Plan: &AbortSet{Points: []CrashPoint{pt}},
	}, newAbortTAS)

	if res.AbortCount() != 1 {
		t.Fatalf("AbortCount = %d, want 1", res.AbortCount())
	}
	ab := res.Aborts[0]
	if ab.PID != pt.PID || ab.OpIndex != pt.OpIndex {
		t.Fatalf("abort delivered at p%d@%d, want p%d@%d", ab.PID, ab.OpIndex, pt.PID, pt.OpIndex)
	}

	// The delivery must be visible in the event stream as EvAbort followed
	// (same pid, later seq) by EvAborted once the back-out finishes.
	abortSeq, abortedSeq := int64(-1), int64(-1)
	for _, ev := range res.Events {
		if ev.PID != pt.PID {
			continue
		}
		switch ev.Kind {
		case EvAbort:
			if abortSeq < 0 {
				abortSeq = ev.Seq
			}
		case EvAborted:
			if abortedSeq < 0 {
				abortedSeq = ev.Seq
			}
		}
	}
	if abortSeq < 0 || abortedSeq < 0 || abortedSeq <= abortSeq {
		t.Fatalf("event order EvAbort(%d) < EvAborted(%d) violated", abortSeq, abortedSeq)
	}

	// Exactly one passage is marked aborted, and the aborted attempt is
	// retried: every process still completes all its requests.
	aborted, completed := 0, map[int]int{}
	for _, ps := range res.Passages {
		switch {
		case ps.Aborted:
			aborted++
			if ps.PID != pt.PID {
				t.Fatalf("aborted passage on pid %d, want %d", ps.PID, pt.PID)
			}
		case !ps.Crashed:
			completed[ps.PID]++
		}
	}
	if aborted != 1 {
		t.Fatalf("%d aborted passages, want 1", aborted)
	}
	for pid := 0; pid < 2; pid++ {
		if completed[pid] != 2 {
			t.Fatalf("pid %d completed %d passages, want 2 (aborted attempt must retry)", pid, completed[pid])
		}
	}
}

// Aborts are only deliverable to locks that implement Aborter; the plain
// tasLock must run the same plan abort-free.
func TestAbortRequiresAborter(t *testing.T) {
	res := run(t, Config{
		N: 2, Model: memory.CC, Requests: 2, Seed: 11,
		Plan: &AbortSet{Points: []CrashPoint{{PID: 1, OpIndex: 0}}},
	}, newTAS)
	if res.AbortCount() != 0 {
		t.Fatalf("non-Aborter lock received %d aborts", res.AbortCount())
	}
	for _, ps := range res.Passages {
		if ps.Aborted {
			t.Fatal("non-Aborter lock has an aborted passage")
		}
	}
}

// When a FaultSet names the same (pid, op-index) boundary for both a crash
// and an abort, the crash is delivered first; the abort point then fires at
// the same boundary of the recovery attempt (op indexes are cumulative and
// the crashed instruction was never executed).
func TestFaultSetCrashWinsTie(t *testing.T) {
	pt := CrashPoint{PID: 0, OpIndex: 1}
	res := run(t, Config{
		N: 2, Model: memory.CC, Requests: 2, Seed: 3,
		Plan: &FaultSet{
			Crashes: CrashSet{Points: []CrashPoint{pt}},
			Aborts:  AbortSet{Points: []CrashPoint{pt}},
		},
	}, newAbortTAS)

	if res.CrashCount() != 1 || res.AbortCount() != 1 {
		t.Fatalf("crashes=%d aborts=%d, want 1 and 1", res.CrashCount(), res.AbortCount())
	}
	if got := res.Aborts[0]; got.PID != pt.PID || got.OpIndex != pt.OpIndex {
		t.Fatalf("abort at p%d@%d, want p%d@%d", got.PID, got.OpIndex, pt.PID, pt.OpIndex)
	}
	var crashSeq, abortSeq int64 = -1, -1
	for _, ev := range res.Events {
		if ev.PID != pt.PID {
			continue
		}
		if ev.Kind == EvCrash && crashSeq < 0 {
			crashSeq = ev.Seq
		}
		if ev.Kind == EvAbort && abortSeq < 0 {
			abortSeq = ev.Seq
		}
	}
	if crashSeq < 0 || abortSeq < 0 || crashSeq >= abortSeq {
		t.Fatalf("crash (seq %d) must be delivered before the tied abort (seq %d)", crashSeq, abortSeq)
	}
}

func TestRandomAbortsAccounting(t *testing.T) {
	res := run(t, Config{
		N: 3, Model: memory.CC, Requests: 6, Seed: 42,
		Plan: &RandomAborts{Rate: 0.2, MaxTotal: 8},
	}, newAbortTAS)

	if res.AbortCount() == 0 {
		t.Fatal("RandomAborts delivered no aborts; pick a hotter seed or rate")
	}
	if res.AbortCount() > 8 {
		t.Fatalf("%d aborts exceed MaxTotal=8", res.AbortCount())
	}

	// The metrics identity the CI gate enforces: every attempt either
	// completes, aborts, or crashes.
	s := res.MetricsSnapshot(1)
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		t.Fatalf("attempts=%d != passages=%d + aborted=%d + crashed=%d",
			s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts)
	}
	if s.Aborted != uint64(res.AbortCount()) {
		t.Fatalf("snapshot aborted=%d, result aborts=%d", s.Aborted, res.AbortCount())
	}
	var abortHist uint64
	for _, c := range s.AbortRMRHist.Counts {
		abortHist += c
	}
	if abortHist != s.Aborted {
		t.Fatalf("abort RMR histogram holds %d entries, want %d", abortHist, s.Aborted)
	}

	// Aborted attempts retry: satisfaction is unchanged.
	completed := map[int]int{}
	for _, ps := range res.Passages {
		if !ps.Crashed && !ps.Aborted {
			completed[ps.PID]++
		}
	}
	for pid := 0; pid < 3; pid++ {
		if completed[pid] != 6 {
			t.Fatalf("pid %d completed %d passages, want 6", pid, completed[pid])
		}
	}
}

func TestRandomAbortsPerProcessCap(t *testing.T) {
	res := run(t, Config{
		N: 2, Model: memory.CC, Requests: 8, Seed: 9,
		Plan: &RandomAborts{Rate: 0.2, MaxPerProcess: 1},
	}, newAbortTAS)
	per := map[int]int{}
	for _, ab := range res.Aborts {
		per[ab.PID]++
	}
	for pid, n := range per {
		if n > 1 {
			t.Fatalf("pid %d received %d aborts, cap is 1", pid, n)
		}
	}
}

func TestPlanSweepAbortPlacements(t *testing.T) {
	sp, err := PlanSweep(SweepConfig{
		Config: Config{N: 2, Model: memory.CC, Requests: 1, Seed: 7},
		Aborts: true,
	}, newAbortTAS)
	if err != nil {
		t.Fatal(err)
	}

	// Every (pid, op-index) boundary of the recorded streams gets a
	// single-abort placement (horizon 0 = full stream).
	want := map[CrashPoint]bool{}
	for pid, stream := range sp.Streams {
		for k := range stream {
			want[CrashPoint{PID: pid, OpIndex: int64(k)}] = true
		}
	}
	single := map[CrashPoint]bool{}
	var pairs int
	for _, pl := range sp.Placements {
		if !pl.HasAborts() {
			continue
		}
		if len(pl.Points) > 0 {
			pairs++
			// Abort×crash pairs are same-pid with the crash landing
			// strictly after the abort — inside the back-out window.
			if pl.Points[0].PID != pl.Aborts[0].PID {
				t.Fatalf("abort×crash pair crosses pids: %s", pl)
			}
			if pl.Points[0].OpIndex <= pl.Aborts[0].OpIndex {
				t.Fatalf("pair crash does not land after the abort: %s", pl)
			}
			continue
		}
		if len(pl.Aborts) == 1 {
			single[pl.Aborts[0]] = true
		}
		if !strings.Contains(pl.String(), "abort") {
			t.Fatalf("abort placement renders without 'abort': %q", pl.String())
		}
	}
	for pt := range want {
		if !single[pt] {
			t.Fatalf("boundary %+v has no single-abort placement", pt)
		}
	}
	// Three crash offsets after every after-RMW abort point.
	rmws := 0
	for _, stream := range sp.Streams {
		for _, op := range stream {
			if op.Kind == memory.OpFAS || op.Kind == memory.OpCAS {
				rmws++
			}
		}
	}
	if pairs == 0 || pairs != 3*rmws {
		t.Fatalf("%d abort×crash pairs, want 3 per after-RMW point (%d)", pairs, 3*rmws)
	}
}

// Running every abort placement of a small sweep must terminate cleanly
// with the abort actually delivered (when its boundary is reached) and all
// requests eventually satisfied.
func TestSweepRunsAbortPlacements(t *testing.T) {
	sp, err := PlanSweep(SweepConfig{
		Config:  Config{N: 2, Model: memory.CC, Requests: 1, Seed: 7},
		Horizon: 3,
		Aborts:  true,
	}, newAbortTAS)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for i, pl := range sp.Placements {
		if !pl.HasAborts() {
			continue
		}
		res, err := sp.Run(i, newAbortTAS)
		if err != nil {
			t.Fatalf("placement %s: %v", pl, err)
		}
		completed := map[int]int{}
		for _, ps := range res.Passages {
			if !ps.Crashed && !ps.Aborted {
				completed[ps.PID]++
			}
		}
		for pid := 0; pid < 2; pid++ {
			if completed[pid] != 1 {
				t.Fatalf("placement %s: pid %d completed %d passages, want 1", pl, pid, completed[pid])
			}
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no abort placements were run")
	}
}
