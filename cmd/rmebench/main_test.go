package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/bench"
)

// TestUsageDerivedFromRegistry pins the anti-drift property: every
// registry experiment appears in the usage text with its description, and
// the usage text names nothing that is not in the registry.
func TestUsageDerivedFromRegistry(t *testing.T) {
	usage := usageText()
	for _, e := range experiments {
		if !strings.Contains(usage, e.name) {
			t.Errorf("usage missing experiment %q", e.name)
		}
		if !strings.Contains(usage, e.desc) {
			t.Errorf("usage missing description of %q", e.name)
		}
	}
	if !strings.Contains(usage, "all") {
		t.Error("usage missing the all pseudo-experiment")
	}
	// Every indented name in the usage body must resolve in the registry.
	for _, line := range strings.Split(usage, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		name := strings.Fields(line)[0]
		if name == "all" {
			continue
		}
		found := false
		for _, e := range experiments {
			if e.name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("usage lists %q, not in the registry", name)
		}
	}
}

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.desc == "" || e.run == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		if e.name == "all" {
			t.Fatal("registry must not shadow the all pseudo-experiment")
		}
		seen[e.name] = true
	}
	names := experimentNames()
	if names[len(names)-1] != "all" {
		t.Fatalf("experimentNames ends with %q, want all", names[len(names)-1])
	}
	if len(names) != len(experiments)+1 {
		t.Fatalf("%d names for %d experiments", len(names), len(experiments))
	}
	// The new experiments of this growth stage must be registered.
	for _, want := range []string{"des", "metrics", "map", "abort"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run("no-such-experiment", options{})
	if err == nil || !strings.Contains(err.Error(), "no-such-experiment") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "des") {
		t.Fatalf("error does not list valid experiments: %v", err)
	}
}

// quiet redirects stdout away from the test log until the test ends.
func quiet(t *testing.T) {
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = old
		null.Close()
	})
}

// TestRunDES exercises the des experiment end to end at miniature scale,
// through the des flags' options.
func TestRunDES(t *testing.T) {
	o := options{json: true, out: io.Discard, ropts: bench.ReportOpts{Workers: 2, DESRequests: 4,
		DESRates: []float64{5_000}, DESKeys: 4, DESCrashes: 2}}
	if err := run("des", o); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFiles drives the -check path: the checked-in reports pass, a
// report that breaks a gate fails, and an unreadable file is an error.
func TestCheckFiles(t *testing.T) {
	quiet(t)
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in reports: %v", err)
	}
	if ok, err := checkFiles(files); !ok || err != nil {
		t.Fatalf("checked-in reports fail their gates (err %v)", err)
	}
	empty := filepath.Join(t.TempDir(), "BENCH_metrics.json")
	if err := os.WriteFile(empty, []byte(`{"schema": "rme-bench-metrics/v1", "results": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := checkFiles([]string{empty}); ok || err != nil {
		t.Fatalf("empty report: ok=%v err=%v, want a gate violation", ok, err)
	}
	if ok, err := checkFiles([]string{filepath.Join(t.TempDir(), "missing.json")}); ok || err == nil {
		t.Fatalf("missing file: ok=%v err=%v, want an error", ok, err)
	}
}

// simulatorExperiments are the experiments whose output is deterministic
// and quoted in EXPERIMENTS.md.
var simulatorExperiments = []string{"table1", "table2", "figure1", "figure2", "figure3",
	"adaptivity", "escalation", "batch", "resp", "components", "scale", "ablation", "reclaim"}

// pinnedBlock is a fenced block of EXPERIMENTS.md whose first line is an
// rmebench command: the rest of the block is that command's output.
type pinnedBlock struct {
	args []string
	want string
}

// pinnedBlocks extracts every pinned block from doc.
func pinnedBlocks(doc string) []pinnedBlock {
	const prompt = "$ go run ./cmd/rmebench "
	var (
		out    []pinnedBlock
		block  []string
		inside bool
	)
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case !strings.HasPrefix(line, "```"):
			block = append(block, line)
		case !inside:
			inside, block = true, nil
		default:
			inside = false
			if len(block) > 0 && strings.HasPrefix(block[0], prompt) {
				out = append(out, pinnedBlock{strings.Fields(strings.TrimPrefix(block[0], prompt)),
					strings.Join(block[1:], "\n")})
			}
		}
	}
	return out
}

// trimLines drops trailing blanks from every line and trailing empty lines.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}

// TestExperimentsMatchCode pins EXPERIMENTS.md to the code, as
// TestDesignMatchesCode pins DESIGN.md: every simulator experiment has a
// block that quotes its command, and each block's output is what the
// command prints today, line for line.
func TestExperimentsMatchCode(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every simulator table; skipped with -short")
	}
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := pinnedBlocks(string(raw))
	pinned := map[string]bool{}
	for _, b := range blocks {
		fs := flag.NewFlagSet("rmebench", flag.ContinueOnError)
		var got bytes.Buffer
		o, err := parseOptions(fs, b.args, &got)
		if err != nil || fs.NArg() != 1 {
			t.Errorf("rmebench %s: not one experiment (%v)", strings.Join(b.args, " "), err)
			continue
		}
		name := fs.Arg(0)
		pinned[name] = true
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := run(name, o); err != nil {
				t.Fatal(err)
			}
			if g, w := trimLines(got.String()), trimLines(b.want); g != w {
				t.Errorf("EXPERIMENTS.md's block for rmebench %s differs from the code's output.\ncode:\n%s\ndoc:\n%s",
					strings.Join(b.args, " "), g, w)
			}
		})
	}
	for _, name := range simulatorExperiments {
		if !pinned[name] {
			t.Errorf("EXPERIMENTS.md pins no block for rmebench %s", name)
		}
	}
}
