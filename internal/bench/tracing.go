package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rme"
)

// The tracing experiment A/B-measures the flight recorder's overhead on
// the native backend, wall clock per passage, in the three tiers the
// design promises: "none" (no recorder configured — the single nil check),
// "off" (recorder present but disabled — one atomic flag load per event
// site), and "on" (full recording into the per-process rings). Reps are
// interleaved across the modes so machine-state drift hits all three
// equally, and the median rep is kept. Results serialize as
// BENCH_tracing.json (rme-bench-tracing/v1); Check bounds the median
// recorder-off overhead at 5%.

// tracingModes orders the three recorder tiers; the order is also the
// within-rep interleaving order.
var tracingModes = []string{"none", "off", "on"}

// Tracing sweeps worker counts over the three recorder tiers and reports
// median wall-clock passage latency with the overhead vs no recorder.
func Tracing(o ReportOpts) (*Report, error) {
	return tracing(o, timePassages)
}

// timePassages times passages Lock/Unlock pairs split across workers on
// a fresh mutex carrying mode's recorder tier.
func timePassages(mode string, workers, passages int) (time.Duration, error) {
	var opts []rme.Option
	switch mode {
	case "off":
		opts = append(opts, rme.WithTracing(rme.TracingOptions{Disabled: true}))
	case "on":
		opts = append(opts, rme.WithTracing(rme.TracingOptions{}))
	}
	m, err := rme.New(workers, opts...)
	if err != nil {
		return 0, err
	}
	return drive(workers, passages, func(pid, _ int) {
		m.Lock(pid)
		m.Unlock(pid)
	}), nil
}

// tracing runs the protocol over measure: per worker count, a discarded
// warmup per mode, then interleaved timed reps.
func tracing(o ReportOpts, measure func(mode string, workers, passages int) (time.Duration, error)) (*Report, error) {
	o.fill()
	rep := newReport("tracing", o.TimedPassages)
	rep.Reps = o.Reps
	run := func(mode string, workers, passages int) (time.Duration, error) {
		runtime.GC() // keep collector pauses out of the timed region
		d, err := measure(mode, workers, passages)
		if err != nil {
			err = fmt.Errorf("bench: tracing %s workers=%d: %w", mode, workers, err)
		}
		return d, err
	}
	for workers := 1; workers <= o.Workers; workers *= 2 {
		for _, mode := range tracingModes {
			if _, err := run(mode, workers, max(o.TimedPassages/4, 1)); err != nil {
				return nil, err
			}
		}
		samples := map[string][]time.Duration{}
		for r := 0; r < o.Reps; r++ {
			for _, mode := range tracingModes {
				d, err := run(mode, workers, o.TimedPassages)
				if err != nil {
					return nil, err
				}
				samples[mode] = append(samples[mode], d)
			}
		}
		base := medianNs(samples["none"]) / float64(o.TimedPassages)
		for _, mode := range tracingModes {
			ns := medianNs(samples[mode]) / float64(o.TimedPassages)
			overhead := 0.0
			if mode != "none" && base > 0 {
				overhead = (ns - base) / base * 100
			}
			rep.Results = append(rep.Results, Row{
				Mode:           mode,
				Workers:        workers,
				Passages:       uint64(o.TimedPassages),
				NsPerPassage:   ns,
				PassagesPerSec: 1e9 / ns,
				OverheadPct:    overhead,
			})
		}
	}
	return rep, nil
}

// medianNs returns the median of the durations in nanoseconds (mean of
// the middle two for even counts).
func medianNs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid].Nanoseconds())
	}
	return float64(s[mid-1].Nanoseconds()+s[mid].Nanoseconds()) / 2
}
