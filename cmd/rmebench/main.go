// Command rmebench regenerates every table and figure of Dhoked & Mittal,
// "An Adaptive Approach to Recoverable Mutual Exclusion" (PODC 2020), by
// measuring the implementations in this repository on the RMR-exact
// shared-memory simulator, and benchmarks the real sync/atomic backend.
//
// Usage:
//
//	rmebench [flags] <experiment>
//	rmebench -check FILE...
//
// Run `rmebench` with no arguments for the experiment list: it is derived
// from the same registry that dispatches them (and pinned by test), so the
// documentation cannot drift from the implementation. Highlights:
//
//	adaptivity   Theorem 5.18: RMRs vs F with √F fit (headline result)
//	metrics      exact CC-model RMR distributions (BENCH_metrics.json)
//	des          virtual-time discrete-event traffic: arrival-rate ramp to
//	             contention collapse, crash storms, Zipf keyspaces,
//	             stragglers (BENCH_des.json)
//	all          everything, in registry order
//
// With -json, tables and reports are emitted as JSON documents instead of
// text — the format archived as BENCH_*.json (see EXPERIMENTS.md). With
// -check, the arguments are BENCH_*.json files: every violated gate is
// printed and the exit status is 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rme/internal/bench"
	"rme/internal/buildinfo"
)

// options bundles every experiment's parsed configuration.
type options struct {
	opts  bench.Opts
	ropts bench.ReportOpts
	seed  int64
	json  bool
	out   io.Writer
}

// experiment is one registry entry: the dispatch name, the one-line
// description shown in usage, and the runner.
type experiment struct {
	name string
	desc string
	run  func(o options) error
}

// doc is an experiment's output: a table or a BENCH_*.json report.
type doc interface {
	fmt.Stringer
	JSON() ([]byte, error)
}

// show prints d as text, or as its JSON document under -json.
func show(o options, d doc) error {
	if !o.json {
		fmt.Fprintln(o.out, d)
		return nil
	}
	raw, err := d.JSON()
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, string(raw))
	return nil
}

// report adapts a BENCH_*.json experiment to the registry.
func report(experiment func(bench.ReportOpts) (*bench.Report, error)) func(options) error {
	return func(o options) error {
		rep, err := experiment(o.ropts)
		if err != nil {
			return err
		}
		return show(o, rep)
	}
}

// experiments is the single source of truth for the experiment set: the
// usage text, the dispatch switch and the "all" order all derive from it.
var experiments = []experiment{
	{"table1", "Table 1: RMRs per passage, three failure scenarios, all locks", func(o options) error {
		for _, t := range bench.Table1(o.opts) {
			if err := show(o, t); err != nil {
				return err
			}
		}
		return nil
	}},
	{"table2", "Table 2: performance-measure classification", func(o options) error {
		return show(o, bench.Table2(o.opts))
	}},
	{"figure1", "Figure 1: sub-queue fragmentation after unsafe failures", func(o options) error {
		fmt.Fprintln(o.out, bench.Figure1(o.seed))
		return nil
	}},
	{"figure2", "Figure 2: the semi-adaptive framework, with routing trace", func(o options) error {
		fmt.Fprintln(o.out, bench.Figure2(o.seed))
		return nil
	}},
	{"figure3", "Figure 3: the recursive framework, with escalation trace", func(o options) error {
		fmt.Fprintln(o.out, bench.Figure3(o.opts))
		return nil
	}},
	{"adaptivity", "Theorem 5.18: RMRs vs F with sqrt(F) fit (headline result)", func(o options) error {
		return show(o, bench.Adaptivity(o.opts))
	}},
	{"escalation", "Theorem 5.17: escalation depth vs failures", func(o options) error {
		return show(o, bench.Escalation(o.opts))
	}},
	{"batch", "Theorem 7.1: batch vs independent failures", func(o options) error {
		return show(o, bench.Batch(o.opts))
	}},
	{"resp", "Theorem 4.2: WR-Lock responsiveness", func(o options) error {
		return show(o, bench.Responsiveness(o.opts))
	}},
	{"components", "Theorems 4.7/5.6: O(1) component costs", func(o options) error {
		return show(o, bench.Components())
	}},
	{"scale", "failure-free RMRs vs n: the complexity curves of Table 1", func(o options) error {
		return show(o, bench.Scale(o.opts))
	}},
	{"ablation", "the price of each property, from plain MCS up", func(o options) error {
		return show(o, bench.Ablation(o.opts))
	}},
	{"reclaim", "Section 7.2: bounded space via reclamation", func(o options) error {
		return show(o, bench.Reclaim(o.opts))
	}},
	{"metrics", "exact CC-model RMR and level distributions on the lockstep simulator, swept over workers and failures F (BENCH_metrics.json)", report(bench.PassageMetrics)},
	{"tracing", "flight-recorder overhead A/B: absent vs disabled vs recording (BENCH_tracing.json; -check bounds off at 5%)", report(bench.Tracing)},
	{"abort", "abortable passages on the lockstep simulator: failure-free and back-out RMRs at abort rates 0/0.1%/1% (BENCH_abort.json)", report(bench.AbortCost)},
	{"map", "keyed lock manager (rme.Map): RMRs under hot-key, Zipf and churn regimes (BENCH_map.json)", report(bench.MapCost)},
	{"des", "virtual-time discrete-event traffic: rate ramp to collapse, crash storms vs uniform, Zipf keyspaces, stragglers (BENCH_des.json)", report(bench.DESTraffic)},
}

// experimentNames lists the registry in order, with "all" appended.
func experimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// usageText renders the experiment list shown by -h and bad invocations.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: rmebench [flags] <experiment>  |  rmebench -check FILE...\nexperiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(&b, "  %-12s %s\n", e.name, e.desc)
	}
	fmt.Fprintf(&b, "  %-12s %s\n", "all", "everything above, in order")
	b.WriteString("flags:\n")
	return b.String()
}

// run dispatches one experiment name (or "all") against the registry.
func run(name string, o options) error {
	if name == "all" {
		for _, e := range experiments {
			if err := e.run(o); err != nil {
				return err
			}
			fmt.Fprintln(o.out)
		}
		return nil
	}
	for _, e := range experiments {
		if e.name == name {
			return e.run(o)
		}
	}
	return fmt.Errorf("unknown experiment %q (have: %s)", name, strings.Join(experimentNames(), " "))
}

// checkFiles gates BENCH_*.json files, printing every violation; it
// reports whether all gates held.
func checkFiles(files []string) (bool, error) {
	bad, err := bench.Check(files...)
	for _, v := range bad {
		fmt.Println(v)
	}
	return err == nil && len(bad) == 0, err
}

// list parses a comma-separated flag value, item by item.
func list[T any](flagName, s string, parse func(string) (T, error)) []T {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmebench: bad -%s item %q: %v\n", flagName, f, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// parseOptions declares the experiment flags on fs, parses args and
// returns the options they select, with output going to out.
func parseOptions(fs *flag.FlagSet, args []string, out io.Writer) (options, error) {
	var (
		n        = fs.Int("n", 16, "number of processes")
		requests = fs.Int("requests", 5, "satisfied requests per process")
		failures = fs.Int("failures", 0, "failure budget for the F-failures scenario (default n)")
		seeds    = fs.String("seeds", "1,2,3", "comma-separated seeds to average over")
		seed     = fs.Int64("seed", 21, "seed for single-run figures")
		jsonOut  = fs.Bool("json", false, "emit tables and reports as JSON")
		workers  = fs.Int("workers", 8, "metrics/tracing: max concurrent workers; abort/map/des: workers")
		passages = fs.Int("passages", 20000, "tracing: passages per rep")
		reps     = fs.Int("reps", 3, "tracing: reps per measurement (median kept)")
		mpass    = fs.Int("mpassages", 5000, "metrics/abort/map: passages per measurement")
		churnkey = fs.Int("churnkeys", 2048, "map: distinct keys in the churn mode")
		desreq   = fs.Int("desrequests", 60, "des: satisfied requests per process per run")
		desrates = fs.String("desrates", "", "des: comma-separated arrival-rate ramp (req/s per process; default 2k,10k,50k,200k,1M)")
		desseed  = fs.Int64("desseed", 1, "des: seed (fixed so BENCH_des.json is reproducible)")
		deskeys  = fs.Int("deskeys", 16, "des: zipf-regime keyspace size")
		descrash = fs.Int("descrashes", 24, "des: crash-regime failure budget")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{
		opts: bench.Opts{N: *n, Requests: *requests, Failures: *failures,
			Seeds: list("seeds", *seeds, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })},
		ropts: bench.ReportOpts{
			Workers:       *workers,
			Passages:      *mpass,
			ChurnKeys:     *churnkey,
			TimedPassages: *passages,
			Reps:          *reps,
			DESRequests:   *desreq,
			DESSeed:       *desseed,
			DESKeys:       *deskeys,
			DESCrashes:    *descrash,
		},
		seed: *seed,
		json: *jsonOut,
		out:  out,
	}
	if *desrates != "" {
		o.ropts.DESRates = list("desrates", *desrates, func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err == nil && v <= 0 {
				err = fmt.Errorf("rate must be positive")
			}
			return v, err
		})
	}
	return o, nil
}

func main() {
	var (
		check   = flag.Bool("check", false, "gate the BENCH_*.json files named as arguments instead of running an experiment")
		version = flag.Bool("version", false, "print build info and exit")
	)
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, usageText())
		flag.PrintDefaults()
	}
	o, _ := parseOptions(flag.CommandLine, os.Args[1:], os.Stdout)
	if *version {
		fmt.Println(buildinfo.String("rmebench"))
		return
	}
	if *check && flag.NArg() == 0 || !*check && flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *check {
		ok, err := checkFiles(flag.Args())
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmebench: %v\n", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintf(os.Stderr, "rmebench: %v\n", err)
		os.Exit(1)
	}
}
