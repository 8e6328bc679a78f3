// Package promexp renders rme metrics in the Prometheus text exposition
// format (version 0.0.4), the scrape payload cmd/rmeserver serves at
// /metrics.
//
// Metric names are pinned: they are the stable external interface of the
// ops plane (dashboards and alerts key on them), so the tests in this
// package assert the exact family list and any rename is a deliberate,
// reviewed break. The mapping from metrics.Snapshot is one family per
// pinned JSON field — rme_<field>_total for the twelve counters, native
// histograms for the two RMR distributions, counters with a level label
// for the two level distributions.
//
// Encoding is pure: Write only formats values already captured in the
// caller's Snapshot/MapStats/Profile views. Consistency comes from those
// capture paths (the metrics recorder's seqlock snapshots), and the
// passage fast path performs no additional shared-memory operations on
// behalf of a scrape.
package promexp

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rme"
	"rme/internal/buildinfo"
	"rme/internal/flight"
	"rme/internal/metrics"
)

// SoakStats carries the continuous soak regime's campaign tallies.
type SoakStats struct {
	Runs       int
	Violations int
}

// Source is one workload's scrape inputs: the merged passage snapshot
// plus whatever optional views the regime exposes. Every series a Source
// produces carries a workload="<name>" label.
type Source struct {
	Workload string
	Running  bool
	Workers  int
	Snapshot metrics.Snapshot
	// Map holds keyed-map lifecycle stats (map-backed workloads only).
	Map *rme.MapStats
	// Profile holds the flight recorder's phase-latency profile.
	Profile *flight.Profile
	// Soak holds campaign tallies (the soak workload only).
	Soak *SoakStats
}

// snapshotCounters maps the pinned metrics.Snapshot scalar fields to
// their exposition families, in emission order.
var snapshotCounters = []struct {
	name, help string
	get        func(*metrics.Snapshot) uint64
}{
	{"rme_attempts_total", "Passages started; equals passages + aborted + crashed attempts at quiescence.",
		func(s *metrics.Snapshot) uint64 { return s.Attempts }},
	{"rme_passages_total", "Passages completed without a crash (Recover, Enter, CS, Exit).",
		func(s *metrics.Snapshot) uint64 { return s.Passages }},
	{"rme_crashes_total", "Failures delivered, injected or simulated.",
		func(s *metrics.Snapshot) uint64 { return s.Crashes }},
	{"rme_crashed_attempts_total", "Attempts that ended in a crash.",
		func(s *metrics.Snapshot) uint64 { return s.CrashedAttempts }},
	{"rme_aborted_total", "Attempts that backed out crash-safely after cancellation.",
		func(s *metrics.Snapshot) uint64 { return s.Aborted }},
	{"rme_recoveries_total", "Passages that began with a prior crash pending.",
		func(s *metrics.Snapshot) uint64 { return s.Recoveries }},
	{"rme_fast_path_total", "Completed passages that stayed at BA-Lock level 1.",
		func(s *metrics.Snapshot) uint64 { return s.FastPath }},
	{"rme_slow_path_total", "Completed passages that escalated past level 1.",
		func(s *metrics.Snapshot) uint64 { return s.SlowPath }},
	{"rme_splitter_tries_total", "Splitter acquisition attempts.",
		func(s *metrics.Snapshot) uint64 { return s.SplitterTries }},
	{"rme_filter_fas_total", "WR-Lock filter fetch-and-store executions.",
		func(s *metrics.Snapshot) uint64 { return s.FilterFAS }},
	{"rme_rmrs_total", "Remote memory references under the CC model, crashed fragments included.",
		func(s *metrics.Snapshot) uint64 { return s.RMRs }},
	{"rme_ops_total", "Shared-memory instructions executed.",
		func(s *metrics.Snapshot) uint64 { return s.Ops }},
}

// histBounds are the le bucket bounds of the RMR histograms: exact small
// values, then powers of two up to the 257-bucket overflow boundary.
// Samples in a Hist overflow bucket have no exact value and count only
// toward +Inf.
var histBounds = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

type label struct{ k, v string }

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func fmtLabels(ls []label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

type writer struct {
	w   io.Writer
	err error
}

func (w *writer) printf(format string, args ...any) {
	if w.err == nil {
		_, w.err = fmt.Fprintf(w.w, format, args...)
	}
}

func (w *writer) header(name, help, typ string) {
	w.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (w *writer) sample(name string, ls []label, value float64) {
	w.printf("%s%s %s\n", name, fmtLabels(ls), strconv.FormatFloat(value, 'g', -1, 64))
}

func (w *writer) usample(name string, ls []label, value uint64) {
	w.printf("%s%s %d\n", name, fmtLabels(ls), value)
}

func wl(s Source, more ...label) []label {
	return append([]label{{"workload", s.Workload}}, more...)
}

// histogram emits one native Prometheus histogram family: cumulative
// le buckets over histBounds, +Inf = total samples, _sum a lower bound
// (overflow samples counted at the bucket's lower bound).
func (w *writer) histogram(name, help string, srcs []Source, get func(*metrics.Snapshot) metrics.Hist) {
	w.header(name, help, "histogram")
	for _, s := range srcs {
		h := get(&s.Snapshot)
		exact := len(h.Counts) - 1 // index of the overflow bucket
		var cum uint64
		next := 0
		for _, le := range histBounds {
			for next <= le && next < exact {
				cum += h.Counts[next]
				next++
			}
			w.usample(name+"_bucket", wl(s, label{"le", strconv.Itoa(le)}), cum)
		}
		w.usample(name+"_bucket", wl(s, label{"le", "+Inf"}), h.Total())
		w.usample(name+"_sum", wl(s), h.Sum())
		w.usample(name+"_count", wl(s), h.Total())
	}
}

// levelCounter emits a per-level counter family from a level histogram
// (index 0 = level 1).
func (w *writer) levelCounter(name, help string, srcs []Source, get func(*metrics.Snapshot) []uint64) {
	w.header(name, help, "counter")
	for _, s := range srcs {
		for i, c := range get(&s.Snapshot) {
			w.usample(name, wl(s, label{"level", strconv.Itoa(i + 1)}), c)
		}
	}
}

// Write renders the sources as one exposition payload. Sources are
// sorted by workload name, so successive scrapes of the same fleet are
// line-comparable. binary names the serving process for rme_build_info.
func Write(out io.Writer, binary string, sources []Source) error {
	srcs := append([]Source(nil), sources...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Workload < srcs[j].Workload })
	w := &writer{w: out}

	w.header("rme_build_info", "Build metadata of the serving binary; value is always 1.", "gauge")
	w.sample("rme_build_info", []label{
		{"binary", binary},
		{"revision", buildinfo.Revision()},
		{"goversion", buildinfo.GoVersion()},
	}, 1)

	w.header("rme_workload_running", "1 while the workload's drivers are live, 0 when stopped.", "gauge")
	for _, s := range srcs {
		v := 0.0
		if s.Running {
			v = 1
		}
		w.sample("rme_workload_running", wl(s), v)
	}
	w.header("rme_workload_workers", "Configured worker (process) count of the workload.", "gauge")
	for _, s := range srcs {
		w.sample("rme_workload_workers", wl(s), float64(s.Workers))
	}

	for _, c := range snapshotCounters {
		w.header(c.name, c.help, "counter")
		for _, s := range srcs {
			w.usample(c.name, wl(s), c.get(&s.Snapshot))
		}
	}

	w.levelCounter("rme_level_passages_total",
		"Completed passages by deepest BA-Lock level reached (level 1 is the fast path).",
		srcs, func(s *metrics.Snapshot) []uint64 { return s.LevelHist })
	w.levelCounter("rme_abandoned_attempts_total",
		"Aborted attempts by deepest BA-Lock level at back-out.",
		srcs, func(s *metrics.Snapshot) []uint64 { return s.AbandonedHist })

	w.histogram("rme_passage_rmrs",
		"Per-passage RMR cost distribution; _sum is a lower bound (overflow samples counted at the bucket floor).",
		srcs, func(s *metrics.Snapshot) metrics.Hist { return s.RMRHist })
	w.histogram("rme_abort_rmrs",
		"Per-aborted-attempt RMR cost distribution including the back-out protocol.",
		srcs, func(s *metrics.Snapshot) metrics.Hist { return s.AbortRMRHist })

	w.header("rme_rmr_median", "Exact median per-passage RMR cost from the 257-bucket histogram.", "gauge")
	for _, s := range srcs {
		w.sample("rme_rmr_median", wl(s), float64(s.Snapshot.RMRHist.Quantile(0.5)))
	}
	w.header("rme_rmr_p99", "Exact p99 per-passage RMR cost from the 257-bucket histogram.", "gauge")
	for _, s := range srcs {
		w.sample("rme_rmr_p99", wl(s), float64(s.Snapshot.RMRHist.Quantile(0.99)))
	}

	writeMaps(w, srcs)
	writeProfiles(w, srcs)
	writeSoak(w, srcs)
	return w.err
}

// mapGauges and mapCounters map rme.MapStats totals to families.
var mapGauges = []struct {
	name, help string
	get        func(*rme.MapStats) float64
}{
	{"rme_map_keys", "Live keys across all shards.",
		func(m *rme.MapStats) float64 { return float64(m.Keys) }},
	{"rme_map_segments", "Arena segments across all shards.",
		func(m *rme.MapStats) float64 { return float64(m.Segments) }},
	{"rme_map_footprint_words", "Total shared-memory footprint in words.",
		func(m *rme.MapStats) float64 { return float64(m.FootprintWords) }},
	{"rme_map_slot_words", "Per-key slot size in words.",
		func(m *rme.MapStats) float64 { return float64(m.SlotWords) }},
}

var mapCounters = []struct {
	name, help string
	get        func(*rme.MapStats) uint64
}{
	{"rme_map_instantiated_total", "Keys bound to a region, fresh or recycled.",
		func(m *rme.MapStats) uint64 { return m.Instantiated }},
	{"rme_map_recycled_total", "Key bindings that reused a recycled region.",
		func(m *rme.MapStats) uint64 { return m.Recycled }},
	{"rme_map_evictions_total", "Idle keys evicted.",
		func(m *rme.MapStats) uint64 { return m.Evictions }},
}

var shardCounters = []struct {
	name, help string
	get        func(*rme.MapShardStats) uint64
}{
	{"rme_map_shard_keys", "Live keys in the shard.",
		func(sh *rme.MapShardStats) uint64 { return uint64(sh.Keys) }},
	{"rme_map_shard_free", "Recycled regions awaiting reuse in the shard.",
		func(sh *rme.MapShardStats) uint64 { return uint64(sh.Free) }},
	{"rme_map_shard_instantiated_total", "Keys bound to a region in the shard, fresh or recycled.",
		func(sh *rme.MapShardStats) uint64 { return sh.Instantiated }},
	{"rme_map_shard_evictions_total", "Idle keys evicted from the shard.",
		func(sh *rme.MapShardStats) uint64 { return sh.Evictions }},
}

func writeMaps(w *writer, srcs []Source) {
	var withMap []Source
	for _, s := range srcs {
		if s.Map != nil {
			withMap = append(withMap, s)
		}
	}
	if len(withMap) == 0 {
		return
	}
	for _, g := range mapGauges {
		w.header(g.name, g.help, "gauge")
		for _, s := range withMap {
			w.sample(g.name, wl(s), g.get(s.Map))
		}
	}
	for _, c := range mapCounters {
		w.header(c.name, c.help, "counter")
		for _, s := range withMap {
			w.usample(c.name, wl(s), c.get(s.Map))
		}
	}
	for _, c := range shardCounters {
		typ := "counter"
		if !strings.HasSuffix(c.name, "_total") {
			typ = "gauge"
		}
		w.header(c.name, c.help, typ)
		for _, s := range withMap {
			for i := range s.Map.Shards {
				w.usample(c.name, wl(s, label{"shard", strconv.Itoa(i)}), c.get(&s.Map.Shards[i]))
			}
		}
	}
}

// writeProfiles emits the flight phase-latency profile as one summary
// family: quantile series per (workload, phase, level), with _sum
// reconstructed from the profile's exact mean.
func writeProfiles(w *writer, srcs []Source) {
	var withProf []Source
	for _, s := range srcs {
		if s.Profile != nil && len(s.Profile.Phases) > 0 {
			withProf = append(withProf, s)
		}
	}
	if len(withProf) == 0 {
		return
	}
	w.header("rme_phase_latency_ns",
		"Passage phase wall-clock latency by BA-Lock level; quantiles are log2-bucket lower bounds.",
		"summary")
	for _, s := range withProf {
		for _, ph := range s.Profile.Phases {
			base := wl(s, label{"phase", ph.Phase}, label{"level", strconv.Itoa(ph.Level)})
			w.sample("rme_phase_latency_ns", append(append([]label(nil), base...), label{"quantile", "0.5"}), float64(ph.P50NS))
			w.sample("rme_phase_latency_ns", append(append([]label(nil), base...), label{"quantile", "0.99"}), float64(ph.P99NS))
			w.sample("rme_phase_latency_ns_sum", base, ph.MeanNS*float64(ph.Count))
			w.usample("rme_phase_latency_ns_count", base, ph.Count)
		}
	}
}

func writeSoak(w *writer, srcs []Source) {
	var withSoak []Source
	for _, s := range srcs {
		if s.Soak != nil {
			withSoak = append(withSoak, s)
		}
	}
	if len(withSoak) == 0 {
		return
	}
	w.header("rme_soak_runs_total", "Lockstep adversary campaign runs completed.", "counter")
	for _, s := range withSoak {
		w.usample("rme_soak_runs_total", wl(s), uint64(s.Soak.Runs))
	}
	w.header("rme_soak_violations_total", "Campaign runs that violated a correctness property.", "counter")
	for _, s := range withSoak {
		w.usample("rme_soak_violations_total", wl(s), uint64(s.Soak.Violations))
	}
}
