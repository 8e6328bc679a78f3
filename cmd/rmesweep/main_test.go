package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/repro"
	"rme/internal/workload"
)

// runCLI runs the command with args plus -out dir and returns the exit
// status and standard output.
func runCLI(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-out", dir), &stdout, &stderr)
	if code == 2 && stderr.Len() == 0 {
		t.Errorf("%v: exit 2 without a message", args)
	}
	return code, stdout.String()
}

// artifacts lists the repro artifacts in dir.
func artifacts(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "repro-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestSweepClean(t *testing.T) {
	dir := t.TempDir()
	code, out := runCLI(t, dir, "-locks", "wr", "-n", "2", "-requests", "1", "-model", "cc")
	if code != 0 || !strings.Contains(out, "rmesweep: 50 placements, 0 violations") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if files := artifacts(t, dir); len(files) != 0 {
		t.Fatalf("clean sweep wrote %v", files)
	}
}

func TestRandomCampaigns(t *testing.T) {
	dir := t.TempDir()
	// Two locks × two models × one seed.
	code, out := runCLI(t, dir, "-random", "1", "-locks", "wr,sa", "-n", "2", "-requests", "1")
	if code != 0 || !strings.Contains(out, "soak: 4 runs, 0 violations") {
		t.Fatalf("lockstep: exit %d, output:\n%s", code, out)
	}
	// Per DES lock: two determinism probes plus three regimes for the seed.
	code, out = runCLI(t, dir, "-random", "1", "-des", "-n", "3", "-requests", "2")
	if code != 0 || !strings.Contains(out, "des soak: 10 runs, 0 violations") {
		t.Fatalf("des: exit %d, output:\n%s", code, out)
	}
}

// TestPlantedViolation holds the weakly recoverable wr lock to the strong
// battery. A process crashing right after the filter's FAS can put two
// processes in the critical section, which Definition 3.2 allows a weak
// lock and no strong one: the sweep must report it, exit 1 and write one
// artifact per violation that replays the same violation. At seed 1 no
// single crash violates, so the sweep also tries every crash pair;
// exactly eight of them violate, each with one crash right after the
// FAS: no other failure may break a weak lock's mutual exclusion.
func TestPlantedViolation(t *testing.T) {
	planted, err := workload.Lookup("wr")
	if err != nil {
		t.Fatal(err)
	}
	planted.Strength = workload.Strong
	dir := t.TempDir()
	var out bytes.Buffer
	violations, err := sweep([]workload.Spec{planted}, []memory.Model{memory.CC}, sweepOpts{
		n: 4, requests: 2, seed: 1, csops: 2, pairs: true,
		outDir: dir, stdout: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := status(violations); code != 1 || violations != 8 {
		t.Fatalf("exit %d with %d violations, want 1 with 8; output:\n%s", code, violations, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "FAIL ") && !strings.Contains(line, "(after FAS wr:fas)") {
			t.Fatalf("a violation without an unsafe failure: %s", line)
		}
	}
	files := artifacts(t, dir)
	if len(files) != violations {
		t.Fatalf("artifacts %v, want one per violation; output:\n%s", files, out.String())
	}
	for _, file := range files {
		art, err := repro.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := repro.Replay(art, planted.New)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Reproduced(art) || art.Property != check.PropMutualExclusion {
			t.Fatalf("%s: artifact records %q, replay observed %q", file, art.Property, rr.Property)
		}
	}
}

func TestBadFlagsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "0", "-aborts"},
		{"-n", "0", "-random", "1"},
		{"-n", "0", "-random", "1", "-des"},
		{"-random", "-1"},
		{"-des"},
		{"-model", "numa"},
		{"-locks", "nope"},
	} {
		if code, _ := runCLI(t, dir, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
