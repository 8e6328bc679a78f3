package main

import (
	"os/exec"
	"testing"

	"rme/internal/analysis/driver"
)

// TestSuiteRegistration pins the analyzer set: dropping a pass from the
// suite would silently stop enforcing one of the six invariants.
func TestSuiteRegistration(t *testing.T) {
	want := []string{"portdiscipline", "sensitive", "persistfield", "persistorder", "portescape", "spinrmr"}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, name := range want {
		a := suite[i]
		if a == nil {
			t.Fatalf("suite[%d] is nil", i)
		}
		if a.Name != name {
			t.Errorf("suite[%d].Name = %q, want %q", i, a.Name, name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}

// TestRepoIsClean is the self-enforcement gate: the committed algorithm
// packages must satisfy every invariant of the suite rmevet ships (and
// carry no stale rme:allow markers — the driver's allow audit runs here
// too). A regression means a new RMW lost its marker, a spin loop lost
// its Pause, a sensitive FAS lost its persisting write, or similar.
func TestRepoIsClean(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go command not available: %v", err)
	}
	diags, err := driver.Standalone([]string{"rme/..."}, suite)
	if err != nil {
		t.Fatalf("standalone driver: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
