// Package repro records, replays and shrinks failure reproductions.
//
// A violation found by cmd/rmesweep, in its randomized campaign or its
// crash-placement sweep, is captured as a versioned, self-contained Artifact:
// the run configuration, the seed, every scheduler decision, and the exact
// crash placements. Because the simulator serializes execution through the
// scheduler and crashes are named by (pid, instruction index), replaying the
// artifact re-executes the run bit-exactly and re-derives the same
// internal/check verdict — "soak printed a seed once" becomes a regression
// corpus entry that cmd/rmesim -repro can re-check forever.
//
// Shrink applies delta debugging over the artifact's dimensions (crash set,
// schedule-decision prefix, process count, requests) while preserving the
// violated property, so the committed repro is the smallest found variant,
// not the original haystack.
package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/sim"
)

// Format and Version identify the artifact encoding. Version bumps when
// the JSON schema or replay semantics change; Decode rejects artifacts of
// any other version. Version 2 added the abort placements (the Aborts
// field). In version 3 "ba-log", "ba-sublog", "sa", "sa-bakery" and "wr"
// name the pooled recipes the library ships, so an older artifact would
// replay a different lock and read as fixed.
const (
	Format  = "rme-repro"
	Version = 3
)

// Strength values stored in artifacts, selecting the internal/check
// battery replayed against the result.
const (
	StrengthStrong = "strong"
	StrengthWeak   = "weak"
)

// Artifact is one recorded failure reproduction. It is self-contained: no
// field refers to anything outside the artifact except the lock's registry
// name (resolved by the caller into a sim.Factory).
type Artifact struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	// Lock names the algorithm under test (a workload registry key, or a
	// fixture name for locks supplied directly to Replay).
	Lock string `json:"lock"`
	// Strength selects the check battery: "strong" or "weak".
	Strength string `json:"strength"`
	// BCSRMaxOps is the bound passed to check.Strong (ignored for weak).
	BCSRMaxOps int64 `json:"bcsr_max_ops,omitempty"`

	// Run configuration.
	N        int    `json:"n"`
	Model    string `json:"model"` // "CC" or "DSM"
	Requests int    `json:"requests"`
	CSOps    int    `json:"cs_ops"`
	Seed     int64  `json:"seed"`
	MaxSteps int64  `json:"max_steps"`

	// Decisions is the recorded scheduler stream (index into the sorted
	// ready set, one per grant). Replay beyond the stream falls back to
	// the seeded random scheduler.
	Decisions []int32 `json:"decisions"`
	// Crashes are the deterministic crash placements.
	Crashes []sim.CrashPoint `json:"crashes"`
	// Aborts are the deterministic abort placements (version ≥ 2); they
	// reuse the (pid, op-index) point naming of crashes.
	Aborts []sim.CrashPoint `json:"aborts,omitempty"`

	// Property is the check.Property name this artifact reproduces.
	Property string `json:"property"`
	// Violation is the human-readable message observed when the artifact
	// was recorded (informational; replay re-derives the verdict).
	Violation string `json:"violation,omitempty"`
	// Note carries free-form provenance ("soak seed 17", "sweep p2@14").
	Note string `json:"note,omitempty"`
}

// RunSpec describes a run to record: the configuration (including the
// original, possibly randomized failure plan and scheduler) plus the
// metadata the artifact needs to stay self-contained.
type RunSpec struct {
	Lock       string
	Strength   string // StrengthStrong or StrengthWeak
	BCSRMaxOps int64  // 0 defaults to 1 << 20
	Config     sim.Config
	Note       string
}

func parseModel(s string) (memory.Model, error) {
	switch s {
	case "CC":
		return memory.CC, nil
	case "DSM":
		return memory.DSM, nil
	}
	return 0, fmt.Errorf("repro: unknown memory model %q", s)
}

// battery replays the check battery for the artifact's strength.
func battery(strength string, bcsrMaxOps int64, res *sim.Result, runErr error) (string, error) {
	if runErr != nil {
		return check.PropStarvation, runErr
	}
	if bcsrMaxOps == 0 {
		bcsrMaxOps = 1 << 20
	}
	var err error
	switch strength {
	case StrengthStrong:
		err = check.Strong(res, bcsrMaxOps)
	case StrengthWeak:
		err = check.Weak(res)
	default:
		return "", fmt.Errorf("repro: unknown strength %q", strength)
	}
	return check.Property(err), err
}

// Record re-executes spec.Config while recording every scheduler decision
// and crash placement, then checks the result and captures the verdict.
// Because the recording scheduler delegates to the original one and
// consumes randomness identically, the recorded run reproduces the run the
// caller just observed (given a fresh but identical failure plan in
// spec.Config.Plan).
//
// The returned artifact has Property == "" when the run satisfied every
// property; violating artifacts carry the violated property name.
func Record(spec RunSpec, factory sim.Factory) (*Artifact, *sim.Result, error) {
	cfg := spec.Config
	rec := &sim.RecordSched{Inner: cfg.Sched}
	cfg.Sched = rec
	r, err := sim.New(cfg, factory)
	if err != nil {
		return nil, nil, err
	}
	res, runErr := r.Run()

	prop, verr := battery(spec.Strength, spec.BCSRMaxOps, res, runErr)
	if prop == "" && verr != nil {
		return nil, nil, verr
	}
	a := &Artifact{
		Format:     Format,
		Version:    Version,
		Lock:       spec.Lock,
		Strength:   spec.Strength,
		BCSRMaxOps: spec.BCSRMaxOps,
		N:          res.Config.N,
		Model:      res.Config.Model.String(),
		Requests:   res.Config.Requests,
		CSOps:      res.Config.CSOps,
		Seed:       res.Config.Seed,
		MaxSteps:   res.Config.MaxSteps,
		Decisions:  rec.Decisions,
		Property:   prop,
		Note:       spec.Note,
	}
	if verr != nil {
		a.Violation = verr.Error()
	}
	for _, c := range res.Crashes {
		a.Crashes = append(a.Crashes, sim.CrashPoint{PID: c.PID, OpIndex: c.OpIndex})
	}
	for _, ab := range res.Aborts {
		a.Aborts = append(a.Aborts, sim.CrashPoint{PID: ab.PID, OpIndex: ab.OpIndex})
	}
	return a, res, nil
}

// Capture is the campaigns' violation path: it records spec's run,
// shrinks the artifact and writes it to path. It fails when the run
// violates no property under the recording scheduler, since an artifact
// that does not reproduce is no repro.
func Capture(spec RunSpec, factory sim.Factory, path string) error {
	a, _, err := Record(spec, factory)
	if err != nil {
		return fmt.Errorf("recording repro: %w", err)
	}
	if a.Property == "" {
		return fmt.Errorf("violation did not reproduce under the recording scheduler")
	}
	return Shrink(a, factory).WriteFile(path)
}

// ReplayResult is the outcome of replaying an artifact.
type ReplayResult struct {
	// Result is the replayed history.
	Result *sim.Result
	// Property is the violated property observed on replay ("" if every
	// property held).
	Property string
	// CheckErr is the violation (or run error) behind Property.
	CheckErr error
}

// Reproduced reports whether the replay observed the same violated
// property the artifact was recorded with.
func (rr *ReplayResult) Reproduced(a *Artifact) bool {
	return a.Property != "" && rr.Property == a.Property
}

// Replay re-executes an artifact through the serialized scheduler: the
// recorded decision stream drives every grant and a CrashSet reproduces
// every crash placement, so an unmodified artifact re-runs bit-exactly.
// The check battery named by the artifact is then re-applied.
func Replay(a *Artifact, factory sim.Factory) (*ReplayResult, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	model, err := parseModel(a.Model)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		N:        a.N,
		Model:    model,
		Requests: a.Requests,
		CSOps:    a.CSOps,
		Seed:     a.Seed,
		MaxSteps: a.MaxSteps,
		Sched:    &sim.ReplaySched{Decisions: a.Decisions},
		Plan: &sim.FaultSet{
			Crashes: sim.CrashSet{Points: append([]sim.CrashPoint{}, a.Crashes...)},
			Aborts:  sim.AbortSet{Points: append([]sim.CrashPoint{}, a.Aborts...)},
		},
	}
	r, err := sim.New(cfg, factory)
	if err != nil {
		return nil, err
	}
	res, runErr := r.Run()
	prop, verr := battery(a.Strength, a.BCSRMaxOps, res, runErr)
	return &ReplayResult{Result: res, Property: prop, CheckErr: verr}, nil
}

// Validate checks an artifact's structural invariants.
func (a *Artifact) Validate() error {
	if a.Format != Format {
		return fmt.Errorf("repro: not a repro artifact (format %q)", a.Format)
	}
	if a.Version != Version {
		return fmt.Errorf("repro: unsupported artifact version %d (this build reads only %d; since 3 the registry names denote the shipped pooled recipes)", a.Version, Version)
	}
	if a.N < 1 {
		return fmt.Errorf("repro: invalid process count %d", a.N)
	}
	if a.Strength != StrengthStrong && a.Strength != StrengthWeak {
		return fmt.Errorf("repro: unknown strength %q", a.Strength)
	}
	if _, err := parseModel(a.Model); err != nil {
		return err
	}
	for _, c := range a.Crashes {
		if c.PID < 0 || c.PID >= a.N {
			return fmt.Errorf("repro: crash point pid %d out of range [0,%d)", c.PID, a.N)
		}
		if c.OpIndex < 0 {
			return fmt.Errorf("repro: negative crash op index %d", c.OpIndex)
		}
	}
	for _, ab := range a.Aborts {
		if ab.PID < 0 || ab.PID >= a.N {
			return fmt.Errorf("repro: abort point pid %d out of range [0,%d)", ab.PID, a.N)
		}
		if ab.OpIndex < 0 {
			return fmt.Errorf("repro: negative abort op index %d", ab.OpIndex)
		}
	}
	return nil
}

// Cost is the shrink objective: a weighted size of the artifact's search
// dimensions. Shrink only accepts strictly cost-decreasing variants.
func (a *Artifact) Cost() int64 {
	return int64(len(a.Decisions)) + 64*int64(len(a.Crashes)) + 64*int64(len(a.Aborts)) +
		4096*int64(a.N) + 1024*int64(a.Requests)
}

// String summarizes the artifact.
func (a *Artifact) String() string {
	return fmt.Sprintf("%s/%s n=%d requests=%d seed=%d crashes=%d aborts=%d decisions=%d property=%s",
		a.Lock, a.Model, a.N, a.Requests, a.Seed, len(a.Crashes), len(a.Aborts), len(a.Decisions), a.Property)
}

// Encode writes the artifact as indented JSON.
func (a *Artifact) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Decode reads and validates an artifact.
func Decode(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("repro: decoding artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
