// Package regime hosts the long-running workload drivers shared by
// cmd/rmesweep and cmd/rmeserver: the randomized lockstep soak campaign
// that rmesweep -random runs (the adversary battery with shrinking repro
// artifacts and the watchdog post-mortem), and the native continuous
// regimes (hot/Zipf/churn/abort/crash traffic against rme.Mutex and
// rme.Map) the ops plane serves metrics from.
package regime

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"rme/internal/check"
	"rme/internal/memory"
	"rme/internal/metrics"
	"rme/internal/repro"
	"rme/internal/sim"
	"rme/internal/trace"
	"rme/internal/workload"
)

// FlightTail bounds post-mortem flight dumps to the last N events per
// process — the window around the violation, not the whole campaign.
const FlightTail = 256

// Campaign parameterizes one lockstep soak run: every spec, both memory
// models, combined random + unsafe + abort adversaries, across Seeds
// seeds. Violations are captured as shrunk, replayable repro artifacts.
type Campaign struct {
	Seeds    int
	N        int
	Requests int
	OutDir   string
	Specs    []workload.Spec
	Stdout   io.Writer
	// SeedBase offsets the seed range ([SeedBase, SeedBase+Seeds)); the
	// server's continuous soak regime advances it between rounds so every
	// round explores fresh schedules.
	SeedBase int64
	// Watch, if non-nil, shadows every run with a rolling event tail so a
	// wall-clock watchdog can write a post-mortem of a stuck run.
	Watch *Watchdog

	mu  sync.Mutex
	agg map[string]metrics.Snapshot
}

// Watchdog keeps a bounded tail of the lifecycle events of the run in
// progress, updated synchronously from the scheduler via Config.OnEvent.
// On timeout it converts the tail into a flight recording — the same
// post-mortem format the violation path dumps — without needing the stuck
// run to return a Result.
type Watchdog struct {
	mu    sync.Mutex
	lock  string
	model memory.Model
	seed  int64
	n     int
	tail  []sim.Event
}

// Begin marks the start of a shadowed run, resetting the tail.
func (w *Watchdog) Begin(lock string, model memory.Model, seed int64, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lock, w.model, w.seed, w.n = lock, model, seed, n
	w.tail = w.tail[:0]
}

// Observe is the sim.Config.OnEvent hook of the shadowed run.
func (w *Watchdog) Observe(ev sim.Event, _ *memory.Arena) {
	if ev.Kind == sim.EvOp {
		return // lifecycle tail only; op streams are unbounded
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	limit := FlightTail * w.n
	if len(w.tail) >= limit {
		copy(w.tail, w.tail[len(w.tail)-limit/2:])
		w.tail = w.tail[:limit/2]
	}
	w.tail = append(w.tail, ev)
}

// PostMortem writes the current tail as a flight recording and returns
// the path plus a description of the interrupted run.
func (w *Watchdog) PostMortem(outDir string) (string, string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	desc := fmt.Sprintf("%s/%v seed=%d", w.lock, w.model, w.seed)
	res := &sim.Result{Config: sim.Config{N: w.n},
		Events: append([]sim.Event{}, w.tail...)}
	rec := trace.SimRecording(res).Tail(FlightTail)
	rec.Note = fmt.Sprintf("soak watchdog timeout during %s", desc)
	name := fmt.Sprintf("flight-watchdog-%s-%v-seed%d.json", w.lock, w.model, w.seed)
	path := filepath.Join(outDir, name)
	if err := rec.WriteFile(path); err != nil {
		return "", desc, err
	}
	return path, desc, nil
}

// plan builds the per-run adversary. Each run needs a fresh, identical
// plan: the plans are stateful and consume the run's random stream.
func (c *Campaign) plan() sim.FailurePlan {
	return sim.PlanSeq{
		&sim.RandomFailures{Rate: 0.008, MaxPerProcess: 3, DuringPassage: true},
		&sim.UnsafeBudget{Total: 3, Rate: 0.4, MaxPerProcess: 1},
		&sim.RandomAborts{Rate: 0.004, MaxPerProcess: 2},
	}
}

func (c *Campaign) config(model memory.Model, seed int64) sim.Config {
	cfg := sim.Config{N: c.N, Model: model, Requests: c.Requests,
		Seed: seed, Plan: c.plan(), CSOps: 3, MaxSteps: 30_000_000}
	if c.Watch != nil {
		cfg.OnEvent = c.Watch.Observe
	}
	return cfg
}

// dumpFlight writes a post-mortem flight recording of the violating run —
// the last FlightTail lifecycle events per process in the rme-flight/v1
// interchange format, so cmd/rmetrace can render the window around the
// violation as a Chrome trace or ASCII timeline.
func (c *Campaign) dumpFlight(spec workload.Spec, model memory.Model, seed int64,
	res *sim.Result, observed error) (string, error) {
	rec := trace.SimRecording(res).Tail(FlightTail)
	rec.Note = fmt.Sprintf("soak %s/%v seed=%d: %v", spec.Name, model, seed, observed)
	name := fmt.Sprintf("flight-%s-%v-seed%d.json", spec.Name, model, seed)
	path := filepath.Join(c.OutDir, name)
	if err := rec.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// merge folds one run's snapshot into the campaign aggregate; snapshots
// are readable mid-run via Metrics (the server scrapes while soaking).
func (c *Campaign) merge(name string, s metrics.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.agg == nil {
		c.agg = map[string]metrics.Snapshot{}
	}
	c.agg[name] = c.agg[name].Merge(s)
}

// Metrics returns the per-lock aggregate snapshots merged so far, safe to
// call concurrently with Run.
func (c *Campaign) Metrics() map[string]metrics.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]metrics.Snapshot, len(c.agg))
	for k, v := range c.agg {
		out[k] = v
	}
	return out
}

// Run executes the campaign and returns (runs, violations).
func (c *Campaign) Run() (int, int) {
	runs, failures := 0, 0
	var order []string
	for _, spec := range c.Specs {
		if spec.Strength == workload.NonRecoverable {
			continue
		}
		order = append(order, spec.Name)
		levels := 1 // the level-histogram depth: SA levels plus the base
		if spec.Levels != nil {
			levels = spec.Levels(c.N) + 1
		}
		for _, model := range []memory.Model{memory.CC, memory.DSM} {
			for seed := c.SeedBase; seed < c.SeedBase+int64(c.Seeds); seed++ {
				if c.Watch != nil {
					c.Watch.Begin(spec.Name, model, seed, c.N)
				}
				r, err := sim.New(c.config(model, seed), spec.New)
				if err != nil {
					panic(err)
				}
				res, err := r.Run()
				runs++
				if err == nil {
					c.merge(spec.Name, res.MetricsSnapshot(levels))
				}
				var cerr error
				if err != nil {
					cerr = &check.Violation{Property: check.PropStarvation, Err: err}
				} else {
					cerr = spec.Check(res)
				}
				if cerr == nil {
					continue
				}
				failures++
				fmt.Fprintf(c.Stdout, "FAIL %s/%v seed=%d (%d crashes, %d aborts): %v\n",
					spec.Name, model, seed, res.CrashCount(), res.AbortCount(), cerr)
				if fp, ferr := c.dumpFlight(spec, model, seed, res, cerr); ferr != nil {
					fmt.Fprintf(c.Stdout, "  flight: %v\n", ferr)
				} else {
					fmt.Fprintf(c.Stdout, "  flight recording → %s (render: rmetrace -timeline %s)\n", fp, fp)
				}
				note := fmt.Sprintf("soak %s/%v seed=%d: %v", spec.Name, model, seed, cerr)
				path := filepath.Join(c.OutDir, fmt.Sprintf("repro-%s-%v-seed%d.json", spec.Name, model, seed))
				if rerr := repro.Capture(spec.RunSpec(c.config(model, seed), note), spec.New, path); rerr != nil {
					fmt.Fprintf(c.Stdout, "  repro: %v\n", rerr)
					continue
				}
				fmt.Fprintf(c.Stdout, "  repro written to %s (replay: rmesim -repro %s)\n", path, path)
			}
		}
	}
	agg := c.Metrics()
	fmt.Fprintln(c.Stdout, "metrics (aggregated over models and seeds):")
	for _, name := range order {
		fmt.Fprintf(c.Stdout, "  %-12s %s\n", name, agg[name])
	}
	fmt.Fprintf(c.Stdout, "soak: %d runs, %d violations\n", runs, failures)
	return runs, failures
}
