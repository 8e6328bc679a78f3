package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rme"
)

// config sizes one benchmark run.
type config struct {
	seed      uint64
	seconds   float64       // measured time per workload
	window    time.Duration // end-to-end statistic window
	layerWin  time.Duration // layer-pass window, warm included
	warm      time.Duration // discarded start of each layer-pass window
	warmup    int           // Mutex warm-up passages per set-up
	mapWarmup int           // Map warm-up passages per set-up
	setupReps int           // set-ups timed; setup_s is their median
	rounds    int           // slices the end-to-end pass is spread over
	counted   int           // passages of a counted (RMR) pass
	countedIn int           // slices of the end-to-end counted pass
	spanCap   int           // spans each traced worker keeps
}

func defaultConfig(seed uint64, seconds float64) config {
	return config{
		seed: seed, seconds: seconds,
		window: 200 * time.Millisecond, layerWin: 100 * time.Millisecond, warm: 10 * time.Millisecond,
		warmup: 100_000, mapWarmup: 20_000, setupReps: 5, rounds: 50,
		counted: 100_000, countedIn: 10, spanCap: 1 << 17,
	}
}

// smokeConfig shrinks every phase so a workload finishes in about half a
// second; the numbers are for checking the harness, not for reading.
func smokeConfig(seed uint64) config {
	c := defaultConfig(seed, 0.4)
	c.warmup, c.mapWarmup, c.setupReps, c.rounds, c.counted, c.countedIn, c.spanCap = 2_000, 2_000, 2, 2, 4_000, 2, 1<<14
	return c
}

func (c config) warmupFor(w workload) int {
	if w.keyed {
		return c.mapWarmup
	}
	return c.warmup
}

// perWorker splits n passages over w's workers.
func perWorker(w workload, n int) phase { return count(n / w.workers) }

// result is one workload's report.
type result struct {
	workload  workload
	traced    bool
	metrics   []metric
	notes     []string // extra report lines (the ledger table)
	attempted uint64
	failed    uint64
	problems  []string
}

// add records m unless its value is NaN or infinite: a median of no
// windows or a share of nothing was not measured, and a contract metric
// left out that way is reported as a problem by requireContract.
func (r *result) add(m metric) {
	if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		return
	}
	r.metrics = append(r.metrics, m)
}

func (r *result) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// single reports one measured value that is not a median.
func single(name, unit string, v float64, n int, basis string) metric {
	return metric{name: name, unit: unit, value: v, spread: math.NaN(), n: n, basis: basis}
}

// quantileMetric reports a nearest-rank percentile of samples, or nothing
// when there are too few samples beyond it.
func (r *result) quantileMetric(name, unit string, s sparse, q float64) {
	if v, err := s.quantile(q); err == nil {
		r.add(single(name, unit, v, s.total(), "samples"))
	}
}

// endToEnd is the untraced pass. It builds and warms up the product the
// windows measure and the WithMetrics product the counted pass runs on,
// then runs cfg.rounds rounds. In each, every timed set-up takes its next
// slice and the measured windows their next 1/rounds; every
// rounds/countedIn-th round the counted pass takes its next slice too.
// Spreading all three over the run samples the host's speed and the
// workers' interleaving evenly, instead of in one spell.
func endToEnd(w workload, cfg config) (*result, error) {
	res := &result{workload: w}
	chk := newChecker(w)
	ranks := drawRanks(w, cfg.seed)

	prod, err := newProduct(w, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	counted, err := newProduct(w, cfg.seed, 100, rme.WithMetrics())
	if err != nil {
		return nil, err
	}
	_, err = runPhase(prod, ranks, chk, prod.plan, perWorker(w, cfg.warmupFor(w)))
	res.check(err)
	_, err = runPhase(counted, ranks, chk, counted.plan, perWorker(w, cfg.warmupFor(w)/4))
	res.check(err)
	c0 := counted.counters()

	nwin := max(1, int(cfg.seconds*float64(time.Second)/float64(cfg.window)))
	setups := make([]timedSetup, cfg.setupReps)
	r, cr := &phaseRun{}, &phaseRun{}
	var alloc uint64
	for round := range cfg.rounds {
		// Each round's set-up slices start on a collected heap, so none
		// of them pays for the garbage of the windows before.
		runtime.GC()
		for k := range setups {
			if err := setups[k].step(res, w, cfg, uint64(k+1), round, ranks, chk); err != nil {
				return nil, err
			}
		}
		// The counted pass takes fewer, longer slices: every slice starts
		// with the workers out of step, and on mutex-faults 50 short
		// slices moved the RMR median by 2% from run to run.
		if every := cfg.rounds / cfg.countedIn; round%every == 0 {
			n := cfg.counted / cfg.countedIn / w.workers
			c, err := runPhase(counted, ranks, chk, counted.plan, phase{quota: n, skip: round / every * n})
			res.check(err)
			cr.append(c)
		}

		chunk := nwin / cfg.rounds
		if round < nwin%cfg.rounds {
			chunk++
		}
		if chunk == 0 {
			continue
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		m, err := runPhase(prod, ranks, chk, prod.plan, windows(0, cfg.window, chunk))
		runtime.ReadMemStats(&ms1)
		res.check(err)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		r.append(m)
	}
	res.attempted = r.ok

	res.add(fromSummary("throughput_ops_s", "ops/s", summarize(r.perWindow(func(x window) (float64, error) {
		return float64(x.ok) / cfg.window.Seconds(), nil
	}))))
	for _, q := range []struct {
		name string
		q    float64
	}{{"passage_ns_p50", 0.5}, {"passage_ns_p99", 0.99}} {
		if vals := r.perWindow(func(x window) (float64, error) { return x.ns.quantile(q.q) }); len(vals) > 0 {
			res.add(fromSummary(q.name, "ns", summarize(vals)))
		}
	}

	countedRMRs(res, cr, counted.counters().sub(c0))
	res.add(single("footprint_words", "words", float64(prod.footprint()), 1, "lock"))
	took := make([]float64, len(setups))
	for k, s := range setups {
		took[k] = s.took.Seconds()
	}
	s := summarize(took)
	res.add(metric{name: "setup_s", unit: "s", value: s.median, spread: s.iqrShare(), n: s.n, basis: "set-ups"})

	if w.faults {
		res.quantileMetric("recovery_ns_p50", "ns", r.all(func(x *worker) []uint32 { return x.recovery }), 0.5)
		res.quantileMetric("abort_overshoot_ns_p50", "ns", r.all(func(x *worker) []uint32 { return x.overshoot }), 0.5)
		res.add(single("abort_ratio", "ratio", float64(r.aborted)/float64(r.attempts), int(r.attempts), "attempts"))
		res.add(single("attempts", "count", float64(r.attempts), 1, "phase"))
		res.add(single("aborted", "count", float64(r.aborted), 1, "phase"))
		res.add(single("crashed", "count", float64(r.crashed), 1, "phase"))
	}
	res.add(single("alloc_bytes_per_op", "B", float64(alloc)/float64(r.ok), int(r.ok), "passages"))
	res.failed = uint64(chk.violations.Load())
	res.problems = append(res.problems, chk.problems()...)
	return res, nil
}

// timedSetup is one set-up spread over the run: its product is built in
// the first round and warmed up from one goroutine, 1/rounds of the
// warm-up per round; took is the time spent in its slices. On a shared
// host the speed switches between fast and slow spells every few seconds,
// so a set-up timed in one piece lands in one spell and a run's median
// flips between them; one spread over the run sees the run's mix.
type timedSetup struct {
	p    *product
	took time.Duration
}

// step runs the set-up's slice of round. Only a product that cannot be
// built is an error; a failed check is recorded in res.
func (s *timedSetup) step(res *result, w workload, cfg config, stream uint64, round int, ranks [][]uint16, chk *checker) error {
	n := cfg.warmupFor(w) / cfg.rounds
	t0 := time.Now()
	if s.p == nil {
		p, err := newProduct(w, cfg.seed, stream)
		if err != nil {
			return err
		}
		s.p = p
	}
	_, err := runPhase(s.p, ranks[:1], chk, s.p.plan, phase{quota: n, skip: round * n})
	s.took += time.Since(t0)
	res.check(err)
	return nil
}

// countedRMRs reports the CC-model RMRs per completed passage the metrics
// layer recorded over the counted pass (d), and checks the client's
// attempt partition of that pass (r) against the one the metrics layer
// recorded independently.
func countedRMRs(res *result, r *phaseRun, d counters) {
	if d.attempts != r.attempts || d.passages != r.ok || d.aborted != r.aborted || d.crashed != r.crashed {
		res.check(fmt.Errorf("attempt partition disagrees with the metrics layer: client %d/%d/%d/%d, metrics %d/%d/%d/%d (attempts/ok/aborted/crashed)",
			r.attempts, r.ok, r.aborted, r.crashed, d.attempts, d.passages, d.aborted, d.crashed))
	}
	// Grouped-data percentiles: with two workers the share of passages on
	// either side of a whole RMR count moves with the host's timing, and
	// a nearest-rank percentile would jump a whole count with it.
	for _, q := range []float64{0.5, 0.99} {
		if v, err := d.hist.countQuantile(q); err == nil {
			res.add(single(fmt.Sprintf("rmr_p%g", 100*q), "RMRs", v, d.hist.total(), "samples"))
		}
	}
}

// counters is what the product's metrics layer has recorded.
type counters struct {
	attempts, passages, aborted, crashed uint64
	rmrHist                              []uint64
	hist                                 sparse
}

func (p *product) counters() counters {
	if p.keyed != nil {
		s, _ := p.keyed.MetricsSnapshot()
		return counters{s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts, s.RMRHist.Counts, nil}
	}
	s, _ := p.mutex.MetricsSnapshot()
	return counters{s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts, s.RMRHist.Counts, nil}
}

// sub returns the counts recorded between o and c, with the per-passage
// RMR histogram as a sparse histogram (the last bucket holds every
// passage at or above its index, so values there are lower bounds).
func (c counters) sub(o counters) counters {
	d := counters{attempts: c.attempts - o.attempts, passages: c.passages - o.passages,
		aborted: c.aborted - o.aborted, crashed: c.crashed - o.crashed}
	for i, n := range c.rmrHist {
		if i < len(o.rmrHist) {
			n -= o.rmrHist[i]
		}
		if n > 0 {
			d.hist = append(d.hist, bucket{uint32(i), uint32(n)})
		}
	}
	return d
}

// variant is one target of the layer pass with its windows.
type variant struct {
	name string
	target
	plan *faultPlan
	runs []*phaseRun
}

// p50s returns the variant's per-window passage p50s.
func (v *variant) p50s() []float64 {
	var out []float64
	for _, r := range v.runs {
		if q, err := r.wins[0].ns.quantile(0.5); err == nil {
			out = append(out, q)
		}
	}
	return out
}

// means returns the variant's mean time per passage in each window of
// length win, summed over its workers.
func (v *variant) means(win time.Duration) []float64 {
	var out []float64
	for _, r := range v.runs {
		if ok := r.wins[0].ok; ok > 0 {
			out = append(out, float64(win)*float64(len(r.workers))/float64(ok))
		}
	}
	return out
}

// paired summarizes f over the rounds in which both variants have a p50:
// adjacent windows of one round see the same host speed, so their
// difference cancels most of its drift.
func paired(a, b *variant, f func(a, b float64) float64) summary {
	var vals []float64
	for i := range min(len(a.runs), len(b.runs)) {
		x, errA := a.runs[i].wins[0].ns.quantile(0.5)
		y, errB := b.runs[i].wins[0].ns.quantile(0.5)
		if errA == nil && errB == nil {
			vals = append(vals, f(x, y))
		}
	}
	return summarize(vals)
}

func diff(a, b float64) float64     { return a - b }
func overhead(a, b float64) float64 { return 100 * (a/b - 1) }

// perLayer is the traced pass: every variant runs in interleaved windows
// in the workload's shape, and the traced core-direct build records the
// ledger.
func perLayer(w workload, cfg config) (*result, error) {
	res := &result{workload: w, traced: true}
	chk := newChecker(w)
	ranks := drawRanks(w, cfg.seed)
	var vs []*variant
	for i, o := range []struct {
		name string
		opts []rme.Option
	}{
		{"product", nil},
		{"metrics", []rme.Option{rme.WithMetrics()}},
		{"flight_off", []rme.Option{rme.WithTracing(rme.TracingOptions{Disabled: true})}},
		{"flight_on", []rme.Option{rme.WithTracing(rme.TracingOptions{})}},
	} {
		p, err := newProduct(w, cfg.seed, uint64(i), o.opts...)
		if err != nil {
			return nil, err
		}
		vs = append(vs, &variant{name: o.name, target: p, plan: p.plan})
	}
	prod := vs[0].target.(*product)
	// rme.lockctx compares Passage with deadline-free PassageCtx on a
	// failure-free object of the product's type.
	clean := prod
	if w.faults {
		var err error
		if clean, err = newProduct(workload{workers: w.workers}, cfg.seed, 6); err != nil {
			return nil, err
		}
	}
	plainT, ctxT := clean.ctxTargets()
	var corePlan, tracedPlan *faultPlan
	if w.faults {
		corePlan, tracedPlan = newFaultPlan(cfg.seed, 4), newFaultPlan(cfg.seed, 5)
	}
	coreT := newCoreSet(w, tracedPlan, productLevels, true, cfg.spanCap)
	vs = append(vs,
		&variant{name: "passage", target: plainT},
		&variant{name: "passage_ctx", target: ctxT},
		&variant{name: "core", target: newCoreSet(w, corePlan, productLevels, false, 0), plan: corePlan},
		&variant{name: "traced", target: coreT, plan: tracedPlan},
		&variant{name: "sync", target: make(syncSet, lockCount(w))},
		&variant{name: "mcs", target: newMCSSet(w, false)},
		&variant{name: "clock", target: clockOnly{}},
	)
	byName := map[string]*variant{}
	for _, v := range vs {
		byName[v.name] = v
		_, err := runPhase(v.target, ranks, chk, v.plan, perWorker(w, cfg.warmupFor(w)))
		res.check(err)
	}
	rounds := max(1, int(cfg.seconds*float64(time.Second)/(float64(len(vs))*float64(cfg.layerWin))))
	budget := cfg.spanCap / (16 * rounds)
	for _, t := range coreT.tr {
		t.every = 1
	}
	var mapDelta mapCounters
	for round := range rounds {
		for i := range vs {
			v := vs[(i+round)%len(vs)]
			if v.name == "traced" {
				for _, t := range coreT.tr {
					t.budget = budget
				}
			}
			var before mapCounters
			if v.name == "product" && prod.keyed != nil {
				before = readMapCounters(prod.keyed)
			}
			r, err := runPhase(v.target, ranks, chk, v.plan, phase{
				warm: int64(cfg.warm), win: int64(cfg.layerWin - cfg.warm), nwin: 1, classes: w.keyed && v.name == "product",
			})
			res.check(err)
			v.runs = append(v.runs, r)
			if v.name == "product" && prod.keyed != nil {
				mapDelta.addDelta(before, readMapCounters(prod.keyed))
			}
			if v.name == "traced" {
				for _, t := range coreT.tr {
					t.every = max(1, int(r.ok)/len(coreT.tr)/max(budget, 1))
				}
			}
		}
	}

	med := func(v *variant) summary { return summarize(v.p50s()) }
	res.add(fromSummary("rme.driver.ns_p50", "ns", paired(byName["product"], byName["core"], diff)))
	res.add(fromSummary("rme.lockctx.ns_p50", "ns", paired(byName["passage_ctx"], byName["passage"], diff)))
	res.add(fromSummary("core.passage.ns_p50", "ns", med(byName["core"])))

	var l ledger
	for _, t := range coreT.tr {
		l.addSpans(t.buf)
	}
	if len(l.identity) > 0 {
		res.check(fmt.Errorf("ledger identity broken on %d recorded attempts, first: %s", len(l.identity), l.identity[0]))
	}
	res.addLedger(&l)

	res.add(fromSummary("metrics.on.overhead_pct", "%", paired(byName["metrics"], byName["product"], overhead)))
	res.add(fromSummary("flight.off.overhead_pct", "%", paired(byName["flight_off"], byName["product"], overhead)))
	res.add(fromSummary("flight.on.overhead_pct", "%", paired(byName["flight_on"], byName["product"], overhead)))
	res.add(fromSummary("sync.passage_ns_p50", "ns", med(byName["sync"])))
	res.add(fromSummary("mcs.passage_ns_p50", "ns", med(byName["mcs"])))
	counted := newMCSSet(w, true)
	_, err := runPhase(counted, ranks, chk, nil, perWorker(w, cfg.counted))
	res.check(err)
	var rmrs []uint32
	for _, r := range counted.rmrs {
		rmrs = append(rmrs, r...)
	}
	res.quantileMetric("mcs.rmr_p50", "RMRs", sparseOf(rmrs), 0.5)
	// The empty passage is a few tens of ns wide, so its p50 is nearly the
	// same integer every run; its mean per window keeps the digits.
	res.add(fromSummary("bench.clock_ns", "ns", summarize(byName["clock"].means(cfg.layerWin-cfg.warm))))
	res.add(fromSummary("bench.trace_overhead_pct", "%", paired(byName["traced"], byName["core"], overhead)))

	if w.faults {
		var over sparse
		for _, r := range byName["product"].runs {
			over = merge(over, r.all(func(x *worker) []uint32 { return x.overshoot }))
		}
		res.quantileMetric("rme.abort.overshoot_ns_p99", "ns", over, 0.99)
	}
	if w.keyed {
		res.addMap(byName["product"], mapDelta)
	}
	for _, v := range vs {
		if v.name != "clock" {
			res.attempted += sumOK(v.runs)
		}
	}
	res.failed = uint64(chk.violations.Load())
	res.problems = append(res.problems, chk.problems()...)
	return res, nil
}

func sumOK(runs []*phaseRun) uint64 {
	var n uint64
	for _, r := range runs {
		n += r.ok
	}
	return n
}

// addLedger reports the traced segments: per segment the p50 of its self
// cost per completed passage that ran it, and the passage-level counts.
func (r *result) addLedger(l *ledger) {
	if l.passages == 0 {
		r.check(fmt.Errorf("traced pass recorded no completed passage"))
		return
	}
	r.quantileMetric("core.passage.rmr_p50", "RMRs", sparseOf(l.passRMR), 0.5)
	type row struct {
		s     seg
		ns    bool
		rmr   bool
		spins bool
	}
	for _, x := range []row{
		{segFilter, true, true, true},
		{segSplitter, true, true, false},
		{segArb, true, true, true},
		{segExit, true, true, false},
		{segNewNode, true, true, false},
		{segRetire, true, true, false},
		{segSlow, true, true, false},
		{segAbort, true, true, false},
		{segGrEnter, true, true, false},
		{segGrExit, true, false, false},
	} {
		name := x.s.String()
		if x.ns {
			r.quantileMetric(name+".ns_p50", "ns", sparseOf(l.ns[x.s]), 0.5)
		}
		if x.rmr {
			r.quantileMetric(name+".rmr_p50", "RMRs", sparseOf(l.rmr[x.s]), 0.5)
		}
		if x.spins {
			r.quantileMetric(name+".spins_p50", "pauses", sparseOf(l.spins[x.s]), 0.5)
		}
	}
	r.quantileMetric("core.recovery.rmr_p50", "RMRs", sparseOf(l.recoveryRMR), 0.5)
	n := float64(l.passages)
	r.add(single("core.fast_path_ratio", "ratio", float64(l.fast)/n, l.passages, "passages"))
	r.add(single("core.escalated_ratio", "ratio", float64(l.escalated)/n, l.passages, "passages"))
	r.add(single("memory.ops_per_passage", "ops", float64(l.ops)/n, l.passages, "passages"))
	r.add(single("memory.rmr_per_op", "RMRs/op", float64(l.rmrs)/float64(l.ops), l.passages, "passages"))
	r.add(single("memory.spins_per_passage", "pauses", float64(l.pauses)/n, l.passages, "passages"))
	r.notes = append(r.notes, l.table()...)
}

// table renders the ledger: mean self ns and RMRs per completed passage
// by segment and level, summing to the mean passage.
func (l *ledger) table() []string {
	n := float64(l.passages)
	out := []string{fmt.Sprintf("  ledger: %d completed passages traced (%d aborted, %d crashed attempts), deepest level %d",
		l.passages, l.aborted, l.crashed, l.maxLevel)}
	var totNs, totRMR float64
	for s := segRecover; s < nSeg; s++ {
		for lv := range l.sumNs[s] {
			ns, rmr := l.sumNs[s][lv]/n, l.sumRMR[s][lv]/n
			if ns == 0 && rmr == 0 {
				continue
			}
			name := s.String()
			if lv > 0 {
				name = fmt.Sprintf("%s L%d", name, lv)
			}
			out = append(out, fmt.Sprintf("    %-24s %10.1f ns %8.2f RMRs", name, ns, rmr))
			totNs += ns
			totRMR += rmr
		}
	}
	out = append(out, fmt.Sprintf("    %-24s %10.1f ns %8.2f RMRs   (passage mean %.1f ns, %.2f RMRs)",
		"sum of segments", totNs, totRMR, float64(l.nsSum)/n, float64(l.rmrs)/n))
	return out
}

// mapCounters are the Map lifecycle counters and the allocator total.
type mapCounters struct {
	instantiated, evictions, alloc uint64
	keys                           int
}

func readMapCounters(ma *rme.Map) mapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := ma.Stats()
	return mapCounters{instantiated: s.Instantiated, evictions: s.Evictions, alloc: ms.TotalAlloc, keys: s.Keys}
}

// addDelta accumulates the change from a to b; keys is b's.
func (c *mapCounters) addDelta(a, b mapCounters) {
	c.instantiated += b.instantiated - a.instantiated
	c.evictions += b.evictions - a.evictions
	c.alloc += b.alloc - a.alloc
	c.keys = b.keys
}

// addMap reports the Map layer from its lifecycle deltas over the product
// windows and from the key-rank classes.
func (r *result) addMap(v *variant, d mapCounters) {
	passages := float64(sumOK(v.runs))
	r.add(single("rme.map.miss_ratio", "ratio", float64(d.instantiated)/passages, int(passages), "passages"))
	r.add(single("rme.map.evictions_per_kop", "count", 1000*float64(d.evictions)/passages, int(passages), "passages"))
	var head, tail sparse
	for _, run := range v.runs {
		for _, w := range run.workers {
			head = merge(head, w.head.take())
			tail = merge(tail, w.tail.take())
		}
	}
	r.quantileMetric("rme.map.head.ns_p50", "ns", head, 0.5)
	r.quantileMetric("rme.map.tail.ns_p50", "ns", tail, 0.5)
	if d.instantiated > 0 {
		r.add(single("rme.map.alloc_bytes_per_miss", "B", float64(d.alloc)/float64(d.instantiated), int(d.instantiated), "misses"))
	}
	r.add(single("rme.map.live_keys", "keys", float64(d.keys), 1, "map"))
}
