package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/des"
	"rme/internal/workload"
)

// TestDESCampaignClean runs a miniature DES soak over the real locks and
// expects zero violations and no artifacts.
func TestDESCampaignClean(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	c := &desCampaign{seeds: 1, n: 4, requests: 4, outDir: dir, stdout: &out}
	runs, violations := c.run()
	// Per lock: 2 determinism probes + seeds × 3 regimes.
	want := len(workload.Shipped()) * (2 + 1*3)
	if runs != want {
		t.Fatalf("%d runs, want %d; output:\n%s", runs, want, out.String())
	}
	if violations != 0 {
		t.Fatalf("%d violations; output:\n%s", violations, out.String())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 0 {
		t.Fatalf("clean campaign wrote artifacts: %v", files)
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("missing summary:\n%s", out.String())
	}
}

// TestDESCampaignVerify exercises the checker against doctored results.
func TestDESCampaignVerify(t *testing.T) {
	c := &desCampaign{n: 4, requests: 2, stdout: &bytes.Buffer{}}
	cfg := des.Config{Lock: "ba-log", N: 4, Requests: 2, Seed: 1}
	res, err := des.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if verr := c.verify(cfg, res); verr != nil {
		t.Fatalf("clean run flagged: %v", verr)
	}

	bad := *res
	bad.CrashedPassages = res.Crashes + 1
	if c.verify(cfg, &bad) == nil {
		t.Fatal("crash accounting mismatch not flagged")
	}

	bad = *res
	bad.Passage.P90Ns = bad.Passage.P99Ns + 1
	if c.verify(cfg, &bad) == nil {
		t.Fatal("non-monotone percentiles not flagged")
	}

	keyedCfg := cfg
	keyedCfg.Keys = 4
	bad = *res
	bad.MaxKeyCSOverlap = 2
	if c.verify(keyedCfg, &bad) == nil {
		t.Fatal("per-key CS overlap not flagged")
	}
}

// TestDESCampaignArtifacts checks a violation writes both the des-repro
// config (round-trippable into a runnable des.Config) and the flight
// post-mortem.
func TestDESCampaignArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	c := &desCampaign{n: 3, requests: 2, outDir: dir, stdout: &out}
	cfg := des.Config{Lock: "ba-log", N: 3, Requests: 2, Seed: 9,
		Crashes: des.Crashes{Kind: des.Uniform, Budget: 2}}
	res, err := des.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.artifacts("uniform", cfg, res, errFixture)

	reproPath := filepath.Join(dir, "des-repro-ba-log-uniform-seed9.json")
	blob, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatalf("missing repro artifact: %v\noutput:\n%s", err, out.String())
	}
	var repro desRepro
	if err := json.Unmarshal(blob, &repro); err != nil {
		t.Fatal(err)
	}
	if repro.Schema != "rme-des-repro/v1" || repro.Violation == "" {
		t.Fatalf("malformed repro: %+v", repro)
	}
	// The recorded config must reproduce the identical run.
	again, err := des.Run(repro.Config)
	if err != nil {
		t.Fatal(err)
	}
	if again.TraceHash != res.TraceHash {
		t.Fatalf("repro config diverged: %016x vs %016x", again.TraceHash, res.TraceHash)
	}

	if _, err := os.Stat(filepath.Join(dir, "flight-des-ba-log-uniform-seed9.json")); err != nil {
		t.Fatalf("missing flight artifact: %v", err)
	}
}

// errFixture is a stand-in violation for the artifact test.
var errFixture = errString("fixture violation")

type errString string

func (e errString) Error() string { return string(e) }
