package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rme/internal/check"
	"rme/internal/des"
	"rme/internal/regime"
	"rme/internal/trace"
	"rme/internal/workload"
)

// The -des mode soaks the virtual-time discrete-event simulator: the
// shipped locks (workload.Shipped) under crash storms, uniform crash schedules
// and Zipf-keyed traffic, across many seeds. Violations produce two
// artifacts in -out: a flight post-mortem of the lifecycle tail (the
// rme-flight/v1 format cmd/rmetrace renders) and a des-repro JSON holding
// the exact des.Config — the simulation is deterministic, so re-running
// that config reproduces the violation bit for bit.

// desCampaign parameterizes one DES soak; factored out of main so the
// check-and-artifact pipeline is testable.
type desCampaign struct {
	seeds    int
	n        int
	requests int
	outDir   string
	stdout   io.Writer
}

// desRepro is the repro artifact: the failing configuration plus what was
// observed. Re-running Config under des.Run reproduces the run exactly.
type desRepro struct {
	Schema    string     `json:"schema"` // "rme-des-repro/v1"
	Violation string     `json:"violation"`
	Config    des.Config `json:"config"`
}

// regimes returns the traffic regimes one seed cycles through.
func (c *desCampaign) regimes(lock string, seed int64) []struct {
	name string
	cfg  des.Config
} {
	base := des.Config{Lock: lock, N: c.n, Requests: c.requests, Seed: seed,
		Arrival: des.Arrival{Kind: des.Poisson, Rate: 100_000}}
	storm := base
	storm.Crashes = des.Crashes{Kind: des.Storm, Budget: 3 * c.n,
		StormGapNs: 300_000, StormSize: c.n / 2}
	uniform := base
	uniform.Crashes = des.Crashes{Kind: des.Uniform, Budget: 2 * c.n, MeanGapNs: 100_000}
	keyed := base
	keyed.Keys = 8
	keyed.Arrival = des.Arrival{Kind: des.Bursty, Rate: 400_000}
	keyed.Crashes = des.Crashes{Kind: des.Storm, Budget: 2 * c.n, StormGapNs: 400_000}
	return []struct {
		name string
		cfg  des.Config
	}{
		{"storm", storm},
		{"uniform", uniform},
		{"keyed-storm", keyed},
	}
}

// verify applies the DES soak checks to one finished run.
func (c *desCampaign) verify(cfg des.Config, res *des.Result) error {
	if cfg.Keys > 1 {
		// Global CS overlap is meaningless across keys; per-key mutual
		// exclusion is the invariant.
		if res.MaxKeyCSOverlap != 1 {
			return fmt.Errorf("per-key CS overlap %d, want 1", res.MaxKeyCSOverlap)
		}
	} else if err := check.Strong(res.Sim, 1<<20); err != nil {
		return err
	}
	s := res.Passage
	if !(s.P50Ns <= s.P90Ns && s.P90Ns <= s.P99Ns && s.P99Ns <= s.MaxNs) {
		return fmt.Errorf("passage percentiles not monotone: %+v", s)
	}
	if res.Crashes != res.CrashedPassages {
		return fmt.Errorf("%d crashes but %d crashed passages", res.Crashes, res.CrashedPassages)
	}
	if res.Passages == 0 || res.VirtualNs <= 0 {
		return fmt.Errorf("degenerate run: %d passages over %dns", res.Passages, res.VirtualNs)
	}
	total := 0
	for _, k := range res.PerKey {
		total += k.Passages
	}
	if cfg.Keys > 1 && total != res.Passages {
		return fmt.Errorf("per-key passages sum %d != %d", total, res.Passages)
	}
	return nil
}

// flightTail mirrors the shared campaign bound for des post-mortems.
const flightTail = regime.FlightTail

// artifacts writes the repro config and, when a result exists, the flight
// post-mortem of the violating run.
func (c *desCampaign) artifacts(regime string, cfg des.Config, res *des.Result, violation error) {
	repro := desRepro{Schema: "rme-des-repro/v1", Violation: violation.Error(), Config: cfg}
	blob, err := json.MarshalIndent(repro, "", "  ")
	if err == nil {
		name := fmt.Sprintf("des-repro-%s-%s-seed%d.json", cfg.Lock, regime, cfg.Seed)
		path := filepath.Join(c.outDir, name)
		if werr := os.WriteFile(path, blob, 0o644); werr != nil {
			fmt.Fprintf(c.stdout, "  des-repro: %v\n", werr)
		} else {
			fmt.Fprintf(c.stdout, "  des-repro config → %s\n", path)
		}
	}
	if res == nil {
		return
	}
	rec := trace.SimRecording(res.Sim).Tail(flightTail)
	rec.Note = fmt.Sprintf("des soak %s/%s seed=%d: %v", cfg.Lock, regime, cfg.Seed, violation)
	name := fmt.Sprintf("flight-des-%s-%s-seed%d.json", cfg.Lock, regime, cfg.Seed)
	path := filepath.Join(c.outDir, name)
	if werr := rec.WriteFile(path); werr != nil {
		fmt.Fprintf(c.stdout, "  flight: %v\n", werr)
	} else {
		fmt.Fprintf(c.stdout, "  flight recording → %s (render: rmetrace -timeline %s)\n", path, path)
	}
}

// run executes the DES campaign and returns (runs, violations).
func (c *desCampaign) run() (int, int) {
	runs, failures := 0, 0
	for _, lock := range workload.Shipped() {
		// One determinism probe per lock: the same config must hash the
		// same trace twice.
		probe := des.Config{Lock: lock, N: c.n, Requests: c.requests, Seed: 0,
			Crashes: des.Crashes{Kind: des.Storm, Budget: c.n}}
		a, errA := des.Run(probe)
		b, errB := des.Run(probe)
		runs += 2
		switch {
		case errA != nil || errB != nil:
			failures++
			fmt.Fprintf(c.stdout, "FAIL des %s determinism probe: %v / %v\n", lock, errA, errB)
			c.artifacts("determinism", probe, nil, fmt.Errorf("probe error: %v / %v", errA, errB))
		case a.TraceHash != b.TraceHash:
			failures++
			verr := fmt.Errorf("trace hash diverged: %016x vs %016x", a.TraceHash, b.TraceHash)
			fmt.Fprintf(c.stdout, "FAIL des %s determinism probe: %v\n", lock, verr)
			c.artifacts("determinism", probe, a, verr)
		}

		for seed := int64(0); seed < int64(c.seeds); seed++ {
			for _, reg := range c.regimes(lock, seed) {
				runs++
				res, err := des.Run(reg.cfg)
				var verr error
				if err != nil {
					verr = err
					res = nil
				} else {
					verr = c.verify(reg.cfg, res)
				}
				if verr == nil {
					continue
				}
				failures++
				fmt.Fprintf(c.stdout, "FAIL des %s/%s seed=%d: %v\n", lock, reg.name, seed, verr)
				c.artifacts(reg.name, reg.cfg, res, verr)
			}
		}
	}
	fmt.Fprintf(c.stdout, "des soak: %d runs, %d violations\n", runs, failures)
	return runs, failures
}
