package driver_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/analysis"
	"rme/internal/analysis/driver"
	"rme/internal/analysis/passes/portdiscipline"
	"rme/internal/analysis/passes/sensitive"
	"rme/internal/analysis/passes/spinrmr"
)

func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go command not available: %v", err)
	}
}

// TestVettoolProtocol builds the rmevet binary and runs it the way CI
// does: go vet -vettool=rmevet. This exercises the -V=full handshake,
// the *.cfg unit-checker mode, and the .vetx facts plumbing.
func TestVettoolProtocol(t *testing.T) {
	needGo(t)
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short mode")
	}
	tool := filepath.Join(t.TempDir(), "rmevet")
	build := exec.Command("go", "build", "-o", tool, "rme/cmd/rmevet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rmevet: %v\n%s", err, out)
	}

	version := exec.Command(tool, "-V=full")
	out, err := version.Output()
	if err != nil {
		t.Fatalf("rmevet -V=full: %v", err)
	}
	if !strings.HasPrefix(string(out), "rmevet version ") {
		t.Fatalf("rmevet -V=full = %q, want 'rmevet version ...' line", out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "rme/...")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=rmevet rme/...: %v\n%s", err, out)
	}
}

// TestStandaloneReportsViolations feeds the driver a package that
// breaks the discipline and checks the diagnostics surface with
// positions, analyzer names, and stable ordering.
func TestStandaloneReportsViolations(t *testing.T) {
	needGo(t)
	// The fixture must live inside an algorithm package path or every
	// pass would ignore it, so fabricate a throwaway module overlaying
	// rme/internal/grlock.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module rme\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "memory", "memory.go"), fakeMemory)
	writeFile(t, filepath.Join(dir, "internal", "grlock", "bad.go"), badGrlock)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	diags, err := driver.Standalone([]string{"rme/internal/grlock"},
		[]*analysis.Analyzer{portdiscipline.Analyzer, sensitive.Analyzer})
	if err != nil {
		t.Fatalf("standalone driver: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer)
	}
	want := map[string]bool{"portdiscipline": true, "sensitive": true}
	for name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s diagnostic reported; got %v", name, got)
		}
	}
}

// TestStaleAllowAudit checks the driver-level allow audit: an
// rme:allow marker that suppresses a real diagnostic passes silently,
// one that suppresses nothing is reported under the "allowaudit" name.
func TestStaleAllowAudit(t *testing.T) {
	needGo(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module rme\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "memory", "memory.go"), fakeMemory)
	writeFile(t, filepath.Join(dir, "internal", "grlock", "allows.go"), allowsGrlock)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	diags, err := driver.Standalone([]string{"rme/internal/grlock"},
		[]*analysis.Analyzer{portdiscipline.Analyzer})
	if err != nil {
		t.Fatalf("standalone driver: %v", err)
	}
	var audits []driver.Diagnostic
	for _, d := range diags {
		if d.Analyzer == driver.AllowAuditName {
			audits = append(audits, d)
		} else {
			// The used allow must really have suppressed its diagnostic.
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if len(audits) != 1 {
		t.Fatalf("got %d allowaudit diagnostics, want 1: %v", len(audits), audits)
	}
	if !strings.Contains(audits[0].Message, "rme:allow(spinloop") {
		t.Errorf("allowaudit message = %q, want it to name the stale spinloop allow", audits[0].Message)
	}
}

// TestWriteSARIF checks the SARIF log is valid 2.1.0 JSON with one rule
// per analyzer (plus the allow audit) and location URIs relative to the
// base directory.
func TestWriteSARIF(t *testing.T) {
	diags := []driver.Diagnostic{{
		Analyzer: "portdiscipline",
		Message:  "algorithm package imports \"sync\"",
	}}
	diags[0].Pos.Filename = "/repo/internal/grlock/bad.go"
	diags[0].Pos.Line = 7
	diags[0].Pos.Column = 2

	suite := []*analysis.Analyzer{portdiscipline.Analyzer, spinrmr.Analyzer}
	var buf bytes.Buffer
	if err := driver.WriteSARIF(&buf, "rmevet", "/repo", suite, diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct{ ID string }
				}
			}
			Results []struct {
				RuleID    string
				Level     string
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string }
						Region           struct{ StartLine int }
					}
				}
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version = %q, $schema = %q; want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "rmevet" {
		t.Errorf("tool name = %q, want rmevet", run.Tool.Driver.Name)
	}
	if want := len(suite) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d (one per analyzer plus %s)",
			len(run.Tool.Driver.Rules), want, driver.AllowAuditName)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, name := range []string{"portdiscipline", "spinrmr", driver.AllowAuditName} {
		if !ruleIDs[name] {
			t.Errorf("rule %q missing from SARIF tool.driver.rules", name)
		}
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "portdiscipline" || res.Level != "error" {
		t.Errorf("result = %+v, want ruleId portdiscipline, level error", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/grlock/bad.go" {
		t.Errorf("artifact URI = %q, want path relative to the base dir", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 7 {
		t.Errorf("startLine = %d, want 7", loc.Region.StartLine)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}

const fakeMemory = `package memory

type Word = uint64

type Addr int64

type Port interface {
	Read(a Addr) Word
	Write(a Addr, v Word)
	FAS(a Addr, v Word) Word
	CAS(a Addr, old, new Word) bool
	Pause()
}
`

const badGrlock = `package grlock

import (
	_ "sync/atomic"

	"rme/internal/memory"
)

var hits int

func swap(p memory.Port, a memory.Addr) memory.Word {
	hits++
	return p.FAS(a, 1)
}
`

// allowsGrlock carries one rme:allow that suppresses a real diagnostic
// (the package-level var below it) and one that suppresses nothing.
const allowsGrlock = `package grlock

// rme:allow(portdiscipline: scratch counter read only by the harness)
var scratch int

// rme:allow(spinloop: names an analyzer that no longer exists; marker is stale)
var _ int
`
