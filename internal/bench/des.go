package bench

import (
	"fmt"

	"rme/internal/des"
	"rme/internal/workload"
)

// The des experiment runs the virtual-time discrete-event simulator over
// a fixed traffic trajectory: an arrival-rate ramp from an uncontended
// trickle up to contention collapse, a crash-storm vs uniform-crash
// comparison, a Zipf-keyed bursty regime and a straggler regime. Unlike
// the wall-clock experiments the numbers are deterministic — the same
// seed reproduces the report bit for bit — so BENCH_des.json is checked
// in, CI regenerates and diffs it, and Check asserts its invariants
// (monotone percentiles, delivered crashes and aborts, and the low-rate
// anchor costing exactly the native failure-free median).

// desAbortDeadlineNs is the passage deadline of the abort regime in
// virtual nanoseconds: shorter than the p50 waiting time at the collapse
// rate, so deadlines actually fire.
const desAbortDeadlineNs = 30_000

// DESTraffic runs the full trajectory and assembles the report.
func DESTraffic(o ReportOpts) (*Report, error) {
	return desTraffic(o, des.Run)
}

// desTraffic runs the trajectory through run, one call per row.
func desTraffic(o ReportOpts, run func(des.Config) (*des.Result, error)) (*Report, error) {
	o.fill()
	rep := &Report{Schema: schemaOf("des"), Seed: o.DESSeed, Requests: o.DESRequests}
	rates := o.DESRates
	mid, top := rates[len(rates)/2], rates[len(rates)-1]
	// The shipped locks, by the registry names the native reports give
	// them, so the anchor rows are directly comparable.
	for _, lk := range workload.Shipped() {
		at := func(kind des.ArrivalKind, rate float64) des.Config {
			return des.Config{Lock: lk, N: o.Workers, Requests: o.DESRequests, Seed: o.DESSeed,
				Arrival: des.Arrival{Kind: kind, Rate: rate}}
		}
		type point struct {
			regime string
			cfg    des.Config
		}
		// Anchor: one process at the lowest ramp rate. Uncontended virtual
		// traffic must reproduce the native failure-free RMR median
		// (BENCH_metrics.json workers=1 F=0), which Check pins exactly.
		anchor := at(des.Poisson, rates[0])
		anchor.N = 1
		points := []point{{"anchor", anchor}}
		// Ramp: arrival rate swept to contention collapse.
		for _, rate := range rates {
			points = append(points, point{"ramp", at(des.Poisson, rate)})
		}
		// Crash regimes at a mid-ramp rate: the same budget spread
		// uniformly vs concentrated into correlated storms.
		for _, c := range []struct {
			regime string
			kind   des.CrashKind
		}{{"crash-uniform", des.Uniform}, {"crash-storm", des.Storm}} {
			cfg := at(des.Poisson, mid)
			cfg.Crashes = des.Crashes{Kind: c.kind, Budget: o.DESCrashes, MeanGapNs: 100_000, StormGapNs: 400_000}
			points = append(points, point{c.regime, cfg})
		}
		// Zipf-keyed bursty traffic over an rme.Map-shaped keyspace.
		keyed := at(des.Bursty, top)
		keyed.Keys = o.DESKeys
		// Deadline-abort traffic at the collapse rate: waiting long enough
		// that per-passage deadlines fire, exercising the TryLockFor shape
		// (back-out, fresh-arrival retry) under sustained contention.
		abort := at(des.Poisson, top)
		abort.Aborts = des.Aborts{DeadlineNs: desAbortDeadlineNs}
		// One straggler running 8x slow through mid-ramp traffic.
		strag := at(des.Poisson, mid)
		strag.Stragglers = des.Stragglers{Count: 1, Factor: 8}
		points = append(points, point{"zipf", keyed}, point{"abort", abort}, point{"straggler", strag})

		for _, pt := range points {
			res, err := run(pt.cfg)
			if err == nil && res.MaxKeyCSOverlap > 1 {
				err = fmt.Errorf("per-key CS overlap %d", res.MaxKeyCSOverlap)
			}
			if err != nil {
				return nil, fmt.Errorf("bench: des %s %s: %w", lk, pt.regime, err)
			}
			rep.Results = append(rep.Results, desRow(pt.regime, pt.cfg, res))
		}
	}
	return rep, nil
}

// desRow condenses one simulation into its row.
func desRow(regime string, cfg des.Config, res *des.Result) Row {
	return Row{
		Lock:            cfg.Lock,
		Regime:          regime,
		Workers:         cfg.N,
		Failures:        cfg.Crashes.Budget,
		RatePerSec:      cfg.Arrival.Rate,
		Requests:        cfg.Requests,
		Keys:            cfg.Keys,
		Passages:        uint64(res.Passages),
		CrashedPassages: res.CrashedPassages,
		AbortedPassages: res.AbortedPassages,
		Crashes:         uint64(res.Crashes),
		VirtualMs:       float64(res.VirtualNs) / 1e6,
		Throughput:      res.ThroughputPerSec,
		P50Ns:           res.Passage.P50Ns,
		P90Ns:           res.Passage.P90Ns,
		P99Ns:           res.Passage.P99Ns,
		MeanNs:          res.Passage.MeanNs,
		RMRMedian:       int(res.RMRMedian),
		MaxLevel:        res.MaxLevel,
		MaxKeyOverlap:   res.MaxKeyCSOverlap,
		TraceHash:       fmt.Sprintf("%016x", res.TraceHash),
	}
}
