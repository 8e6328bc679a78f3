package sim_test

// The sweep acceptance tests: single-crash coverage of every declared
// sensitive instruction for the WR-Lock, SA-Lock and BA-Lock under both
// memory models, with every internal/check property holding at every
// placement — and a mechanical cross-check of the dynamic sweep against the
// static rme:sensitive-instructions inventories that cmd/rmevet enforces.
//
// This file lives in package sim_test because it exercises the sweep over
// the real algorithm registry (internal/workload imports internal/sim).

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// algorithmDirs are the lock-algorithm packages whose files cmd/rmevet
// holds to the rme:sensitive-instructions inventory discipline.
var algorithmDirs = []string{
	"../arbtree", "../bakery", "../core", "../grlock",
	"../mcs", "../reclaim", "../yalock",
}

// siteMatchers maps each source file that declares sensitive instructions
// to a predicate recognizing that site's executions in an instruction
// stream. Adding a new sensitive site to an inventory without extending
// this map fails TestSweepCoversDeclaredSensitiveInstructions, which is
// the point: every declared site must be demonstrably swept.
var siteMatchers = map[string]func(op memory.OpInfo) bool{
	"core/wrlock.go": func(op memory.OpInfo) bool {
		return op.Kind == memory.OpFAS && strings.HasSuffix(op.Label, ":fas")
	},
}

// inventorySite is one source file's sensitive-instruction declaration.
type inventorySite struct {
	file    string // path relative to internal/ (e.g. "core/wrlock.go")
	declare int    // declared count (rme:sensitive-instructions <n>)
	markers int    // trailing rme:sensitive markers found
}

// scanInventories reads the algorithm packages' sources and extracts every
// rme:sensitive-instructions declaration and rme:sensitive marker.
func scanInventories(t *testing.T) []inventorySite {
	t.Helper()
	var out []inventorySite
	for _, dir := range algorithmDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			site := inventorySite{file: filepath.ToSlash(filepath.Join(filepath.Base(dir), name)), declare: -1}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := sc.Text()
				idx := strings.Index(line, "rme:sensitive")
				if idx < 0 {
					continue
				}
				rest := line[idx+len("rme:sensitive"):]
				if strings.HasPrefix(rest, "-instructions") {
					fields := strings.Fields(rest[len("-instructions"):])
					if len(fields) == 0 {
						t.Fatalf("%s: inventory declaration without a count", path)
					}
					n, err := strconv.Atoi(fields[0])
					if err != nil {
						t.Fatalf("%s: bad inventory count %q", path, fields[0])
					}
					site.declare = n
				} else {
					site.markers++
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if site.declare >= 0 || site.markers > 0 {
				out = append(out, site)
			}
		}
	}
	return out
}

// TestInventoryMarkersConsistent cross-checks the static side on its own:
// each declaring file's marker count matches its declared count (the same
// invariant cmd/rmevet enforces mechanically at vet time).
func TestInventoryMarkersConsistent(t *testing.T) {
	sites := scanInventories(t)
	if len(sites) == 0 {
		t.Fatal("no rme:sensitive-instructions inventories found — did the algorithm packages move?")
	}
	total := 0
	for _, s := range sites {
		if s.declare < 0 {
			t.Errorf("%s: carries rme:sensitive markers but no inventory declaration", s.file)
			continue
		}
		if s.declare != s.markers {
			t.Errorf("%s: declares %d sensitive instruction(s) but carries %d marker(s)", s.file, s.declare, s.markers)
		}
		total += s.declare
	}
	if total == 0 {
		t.Fatal("inventories declare zero sensitive instructions; the WR-Lock FAS on tail must be declared")
	}
}

// sweptLocks are the layers the mechanical proof obligation runs over.
var sweptLocks = []string{"wr", "sa", "ba-log"}

func planFor(t *testing.T, spec workload.Spec, model memory.Model, horizon int64) *sim.SweepPlan {
	t.Helper()
	plan, err := sim.PlanSweep(sim.SweepConfig{
		Config: sim.Config{N: 3, Model: model, Requests: 1, Seed: 1,
			CSOps: 2, MaxSteps: 2_000_000},
		Horizon: horizon,
	}, spec.New)
	if err != nil {
		t.Fatalf("%s/%v: %v", spec.Name, model, err)
	}
	return plan
}

func checkPlacement(t *testing.T, spec workload.Spec, model memory.Model, plan *sim.SweepPlan, i int) {
	t.Helper()
	res, err := plan.Run(i, spec.New)
	if err != nil {
		t.Fatalf("%s/%v placement %s: %v", spec.Name, model, plan.Placements[i], err)
	}
	if err := spec.Check(res); err != nil {
		t.Fatalf("%s/%v placement %s: %v", spec.Name, model, plan.Placements[i], err)
	}
}

// TestSweepCoversDeclaredSensitiveInstructions is the coverage cross-check
// of the sweep against the static inventories: for WR-Lock, SA-Lock and
// BA-Lock under both CC and DSM, every executed instruction belonging to a
// declared sensitive site must receive a crash placement at the rendezvous
// immediately after it, every declared site must be exercised by at least
// one sweep, and every declared site must have a dynamic matcher here.
func TestSweepCoversDeclaredSensitiveInstructions(t *testing.T) {
	sites := scanInventories(t)
	declared := map[string]int{}
	for _, s := range sites {
		if s.declare > 0 {
			declared[s.file] = s.declare
		}
	}
	for file := range declared {
		if _, ok := siteMatchers[file]; !ok {
			t.Fatalf("%s declares sensitive instructions but has no dynamic matcher in siteMatchers — "+
				"extend the map so the sweep can prove coverage of the new site", file)
		}
	}

	exercised := map[string]int{} // matcher file → covered executions
	for _, name := range sweptLocks {
		spec, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			plan := planFor(t, spec, model, 0)
			for pid, stream := range plan.Streams {
				for k, op := range stream {
					for file, match := range siteMatchers {
						if !match(op) {
							continue
						}
						if !plan.CoversAfter(pid, int64(k)) {
							t.Fatalf("%s/%v: sensitive instruction %s %s at p%d@%d has no after-crash placement",
								name, model, op.Kind, op.Label, pid, k)
						}
						exercised[file]++
					}
				}
			}
		}
	}
	for file := range declared {
		if exercised[file] == 0 {
			t.Errorf("declared sensitive site %s was never executed by any sweep — "+
				"its recovery path has no mechanical coverage", file)
		}
	}
}

// TestSweepAllPlacementsHoldProperties is the full proof-obligation run:
// every single-crash placement (plus the F≥2 after-RMW pairs) of WR-Lock,
// SA-Lock and BA-Lock under CC and DSM satisfies the lock's check battery.
func TestSweepAllPlacementsHoldProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is not short")
	}
	for _, name := range sweptLocks {
		spec, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			plan := planFor(t, spec, model, 0)
			if len(plan.Placements) == 0 {
				t.Fatalf("%s/%v: empty sweep plan", name, model)
			}
			for i := range plan.Placements {
				checkPlacement(t, spec, model, plan, i)
			}
			t.Logf("%s/%v: %d placements ok", name, model, len(plan.Placements))
		}
	}
}

// TestSweepArbtreeAbortPlacements pins the arbitration tree's back-out
// against its sharpest hazard: the tree's port-state words are shared
// between sibling processes (port exclusivity comes from subtree mutual
// exclusion, not ownership), so Abort must release exactly the held
// leaf-to-root prefix — a blanket reverse walk reads a sibling's psInCS
// at a stage the aborter never reached and replays the sibling's release
// with a stale sequence number, handing the node to the wrong successor.
// n = 3 gives the topology of the original violation (two processes
// sharing the root port); every abort placement, after-RMW abort, and
// abort×crash pair must hold the strong battery.
func TestSweepArbtreeAbortPlacements(t *testing.T) {
	if testing.Short() {
		t.Skip("abort sweep is not short")
	}
	spec, err := workload.Lookup("arbtree")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		plan, err := sim.PlanSweep(sim.SweepConfig{
			Config: sim.Config{N: 3, Model: model, Requests: 1, Seed: 1,
				CSOps: 2, MaxSteps: 2_000_000},
			Aborts: true,
		}, spec.New)
		if err != nil {
			t.Fatalf("arbtree/%v: %v", model, err)
		}
		aborts := 0
		for i, pl := range plan.Placements {
			if pl.HasAborts() {
				aborts++
			}
			checkPlacement(t, spec, model, plan, i)
		}
		if aborts == 0 {
			t.Fatalf("arbtree/%v: sweep generated no abort placements", model)
		}
		t.Logf("arbtree/%v: %d placements (%d abort) ok", model, len(plan.Placements), aborts)
	}
}

// TestSweepPairsEscalation drives the F≥2 paths: pairs of crashes placed
// immediately after sensitive FAS instructions, the adversary that forces
// filter escalation past level 1.
func TestSweepPairsEscalation(t *testing.T) {
	spec, err := workload.Lookup("ba-log")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sim.PlanSweep(sim.SweepConfig{
		Config:  sim.Config{N: 3, Model: memory.CC, Requests: 1, Seed: 1, CSOps: 2, MaxSteps: 2_000_000},
		Horizon: 1, // boundary placements are not the point here
		Pairs:   true,
	}, spec.New)
	if err != nil {
		t.Fatal(err)
	}
	ranPairs := 0
	for i, pl := range plan.Placements {
		if len(pl.Points) != 2 {
			continue
		}
		ranPairs++
		checkPlacement(t, spec, memory.CC, plan, i)
	}
	if ranPairs == 0 || ranPairs != plan.CrashPairs {
		t.Fatalf("ran %d pair placements of %d", ranPairs, plan.CrashPairs)
	}
	t.Logf("%d crash pairs", ranPairs)
}

// Sweep smoke tests sized for the -race CI job: a horizon-capped WR-Lock
// and SA-Lock sweep, and a full-horizon tournament sweep with aborts, with
// full property checking.

func sweepSmoke(t *testing.T, lock string) {
	spec, err := workload.Lookup(lock)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		plan := planFor(t, spec, model, 10)
		for i := range plan.Placements {
			checkPlacement(t, spec, model, plan, i)
		}
	}
}

func TestSweepSmokeWR(t *testing.T) { sweepSmoke(t, "wr") }
func TestSweepSmokeSA(t *testing.T) { sweepSmoke(t, "sa") }

// TestSweepSmokeTournament places a crash and an abort at every boundary
// of a tournament of arbitrators (n = 3, two requests each). The
// arbitrator has no RMW, so the horizon-capped smoke above never reaches
// its Exit; this sweep crosses every boundary of it, including the one
// between Exit's write and its signal.
func TestSweepSmokeTournament(t *testing.T) {
	spec, err := workload.Lookup("tournament")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		plan, err := sim.PlanSweep(sim.SweepConfig{
			Config: sim.Config{N: 3, Model: model, Requests: 2, Seed: 1, CSOps: 2, MaxSteps: 2_000_000},
			Aborts: true,
		}, spec.New)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		for i := range plan.Placements {
			checkPlacement(t, spec, model, plan, i)
		}
		t.Logf("%v: %d placements", model, len(plan.Placements))
	}
}
