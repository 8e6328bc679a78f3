package workload

import (
	"testing"

	"rme/internal/memory"
	"rme/internal/repro"
	"rme/internal/sim"
)

// abortable reports whether a registry lock implements the sim.Aborter
// back-out protocol (probed on a throwaway instance).
func abortable(spec Spec, n int) bool {
	l := spec.New(memory.NewArena(memory.CC, n), n)
	_, ok := l.(sim.Aborter)
	return ok
}

// verify runs the lock's property battery for its declared strength.
func verify(t *testing.T, spec Spec, res *sim.Result, ctx string) {
	t.Helper()
	if err := spec.Check(res); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// TestAbortMatrix delivers an abort at a sweep of instruction offsets to
// every abortable lock in the registry, on both memory models, and
// verifies the lock's full property contract each time: the abort backs
// the process out, the process re-acquires, and mutual exclusion,
// satisfaction and BCSR all survive the abandon protocol.
func TestAbortMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("abort matrix is expensive; skipped with -short")
	}
	const (
		n        = 4
		requests = 2
		maxAt    = 60
		stride   = 4
	)
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Strength == NonRecoverable || !abortable(spec, n) {
			continue
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			for _, pid := range []int{0, 2} {
				for at := int64(0); at < maxAt; at += stride {
					plan := &sim.AbortSet{Points: []sim.CrashPoint{{PID: pid, OpIndex: at}}}
					r, err := sim.New(sim.Config{N: n, Model: model, Requests: requests,
						Seed: 29, Plan: plan, MaxSteps: 10_000_000}, spec.New)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, model, err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatalf("%s/%v pid=%d at=%d: %v", name, model, pid, at, err)
					}
					if got := len(res.Requests); got != n*requests {
						t.Fatalf("%s/%v pid=%d at=%d: %d requests, want %d",
							name, model, pid, at, got, n*requests)
					}
					verify(t, spec, res, name+"/"+model.String())
				}
			}
		}
	}
}

// TestAbortCrashMatrix crashes a process while it is running the back-out
// protocol itself: an abort at offset k followed by a crash a few
// instructions later on the same process. Recovery after a crash
// mid-abandon must still uphold the full contract.
func TestAbortCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("abort×crash matrix is expensive; skipped with -short")
	}
	const (
		n        = 4
		requests = 2
		maxAt    = 48
		stride   = 6
	)
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Strength == NonRecoverable || !abortable(spec, n) {
			continue
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			for at := int64(0); at < maxAt; at += stride {
				for _, d := range []int64{1, 3} {
					plan := &sim.FaultSet{
						Aborts:  sim.AbortSet{Points: []sim.CrashPoint{{PID: 1, OpIndex: at}}},
						Crashes: sim.CrashSet{Points: []sim.CrashPoint{{PID: 1, OpIndex: at + d}}},
					}
					r, err := sim.New(sim.Config{N: n, Model: model, Requests: requests,
						Seed: 31, Plan: plan, MaxSteps: 10_000_000}, spec.New)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, model, err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatalf("%s/%v at=%d d=%d: %v", name, model, at, d, err)
					}
					verify(t, spec, res, name+"/"+model.String())
				}
			}
		}
	}
}

// TestRandomAbortsMatrix hammers every abortable lock with a randomized
// mix of aborts and crashes across seeds, asserting the contract holds and
// aborts were actually delivered somewhere in the batch.
func TestRandomAbortsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("random abort matrix is expensive; skipped with -short")
	}
	const (
		n        = 4
		requests = 3
	)
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Strength == NonRecoverable || !abortable(spec, n) {
			continue
		}
		delivered := 0
		for seed := int64(1); seed <= 4; seed++ {
			r, err := sim.New(sim.Config{N: n, Model: memory.CC, Requests: requests,
				Seed: seed, MaxSteps: 10_000_000,
				Plan: sim.PlanSeq{
					&sim.RandomAborts{Rate: 0.02, MaxTotal: 4},
					&sim.RandomFailures{Rate: 0.002, MaxTotal: 2, DuringPassage: true},
				}}, spec.New)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			delivered += res.AbortCount()
			verify(t, spec, res, name)
		}
		if delivered == 0 {
			t.Fatalf("%s: no aborts delivered across seeds", name)
		}
	}
}

// TestArbtreeAbortPrefixRepro replays a checked-in violation artifact
// from the abort campaign that found the tree back-out bug: two aborts
// to one process, no crashes, mutual exclusion broken. The tree's
// port-state words are shared between sibling processes, so Abort must
// release exactly the held leaf-to-root prefix; the original blanket
// Tree.Exit read the sibling's psInCS at the shared root port, replayed
// its release with a stale sequence number, and handed the node to the
// wrong successor. The replay is bit-exact (decision stream + abort
// placements), so this test fails the moment that back-out regresses.
func TestArbtreeAbortPrefixRepro(t *testing.T) {
	art, err := repro.ReadFile("testdata/arbtree_abort_prefix.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Lookup(art.Lock)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := repro.Replay(art, spec.New)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Reproduced(art) {
		t.Fatalf("recorded mutual-exclusion violation reproduced: %v", rr.CheckErr)
	}
	if rr.Property != "" {
		t.Fatalf("replay violated %s: %v", rr.Property, rr.CheckErr)
	}
	if rr.Result.AbortCount() != len(art.Aborts) {
		t.Fatalf("replay delivered %d aborts, artifact has %d", rr.Result.AbortCount(), len(art.Aborts))
	}
}
