package workload

import (
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"mcs", "mcs-dt", "wr", "wr-pool", "wr-notify", "bakery",
		"tournament", "arbtree", "sa", "sa-bakery", "ba-log", "ba-sublog", "ba-pool"} {
		s, ok := reg[name]
		if !ok {
			t.Fatalf("missing %q", name)
		}
		if s.Name != name || s.New == nil || s.Paper == "" {
			t.Fatalf("incomplete spec %+v", s)
		}
		if s.Strength != Weak && s.Strength != Strong && s.Strength != NonRecoverable {
			t.Fatalf("%s: bad strength", name)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != len(Registry()) {
		t.Fatal("Names() incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("wr"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEveryLockRunsCleanly(t *testing.T) {
	// Smoke: every registered lock completes a small contended run with
	// a few failures, on both models.
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			var plan sim.FailurePlan
			if spec.Strength != NonRecoverable {
				plan = &sim.RandomFailures{Rate: 0.005, MaxTotal: 3, DuringPassage: true}
			}
			r, err := sim.New(sim.Config{N: 5, Model: model, Requests: 2, Seed: 4, Plan: plan,
				MaxSteps: 10_000_000}, spec.New)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, model, err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("%s/%v: %v", name, model, err)
			}
			if got := len(res.Requests); got != 10 {
				t.Fatalf("%s/%v: %d requests, want 10", name, model, got)
			}
			if spec.Strength == Strong && res.MaxCSOverlap != 1 {
				t.Fatalf("%s/%v: ME violated", name, model)
			}
		}
	}
}

func TestSlowLabels(t *testing.T) {
	spec, _ := Lookup("ba-log")
	labels := spec.SlowLabels(16)
	if len(labels) != spec.Levels(16) {
		t.Fatalf("labels %v vs levels %d", labels, spec.Levels(16))
	}
	if labels[0] != "F1:slow" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestScenarios(t *testing.T) {
	sc := Scenarios(7)
	if len(sc) != 3 {
		t.Fatalf("%d scenarios", len(sc))
	}
	if sc[0].Plan != nil {
		t.Fatal("first scenario must be failure-free")
	}
	if sc[1].Plan(4) == nil || sc[2].Plan(4) == nil {
		t.Fatal("failure scenarios returned nil plans")
	}
}

func TestUnsafeAtLevelAndBatch(t *testing.T) {
	p := UnsafeAtLevel(2, 3, 1)
	cl, ok := p.(*sim.CrashOnLabel)
	if !ok || cl.Label != "F3:fas" || !cl.After || cl.PID != 2 || cl.Occurrence != 1 {
		t.Fatalf("plan = %+v", p)
	}
	b := Batch(50, []int{1, 2})
	if bc, ok := b.(*sim.BatchCrash); !ok || bc.AtSeq != 50 || len(bc.PIDs) != 2 {
		t.Fatalf("batch = %+v", b)
	}
}
