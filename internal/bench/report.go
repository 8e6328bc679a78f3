package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"rme"
	"rme/internal/metrics"
)

// The report experiments — metrics, abort, map, tracing and des — emit
// one document shape, archived as BENCH_<experiment>.json (see
// EXPERIMENTS.md) and validated by Check. The four native ones share one
// fan-out: drive releases the workers from a start barrier and runs an
// exact passage count.

// ReportOpts sizes the report experiments. Zero fields select defaults.
type ReportOpts struct {
	// Workers is the worker count. The metrics and tracing sweeps run
	// 1, 2, 4, ... up to it; the other experiments run at it (default 8).
	Workers int
	// Passages is the completed-passage count of each metrics, abort and
	// map measurement (default 5000).
	Passages int
	// Failures lists the metrics failure budgets F (default 1, 2, 4, 8,
	// 16, 32; F = 0 is covered by the worker sweep).
	Failures []int
	// ChurnKeys is the number of distinct keys the map churn mode
	// touches, one passage each (default 2048).
	ChurnKeys int
	// TimedPassages is the passage count of each tracing rep (default
	// 20000).
	TimedPassages int
	// Reps is the number of tracing reps; the median is kept (default 5).
	Reps int
	// DESRequests is the satisfied-request target per simulated process
	// (default 60).
	DESRequests int
	// DESSeed drives every des run (default 1).
	DESSeed int64
	// DESRates is the des arrival-rate ramp in requests per second per
	// process (default 2k, 10k, 50k, 200k, 1M — trickle to collapse).
	DESRates []float64
	// DESKeys is the keyspace size of the des zipf regime (default 16).
	DESKeys int
	// DESCrashes is the failure budget of the des crash regimes (default
	// 24).
	DESCrashes int
}

func (o *ReportOpts) fill() {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&o.Workers, 8)
	def(&o.Passages, 5000)
	def(&o.ChurnKeys, 2048)
	def(&o.TimedPassages, 20000)
	def(&o.Reps, 5)
	def(&o.DESRequests, 60)
	def(&o.DESKeys, 16)
	def(&o.DESCrashes, 24)
	if o.Failures == nil {
		o.Failures = []int{1, 2, 4, 8, 16, 32}
	}
	if o.DESSeed == 0 {
		o.DESSeed = 1
	}
	if o.DESRates == nil {
		o.DESRates = []float64{2_000, 10_000, 50_000, 200_000, 1_000_000}
	}
}

// Report is one BENCH_*.json document. Fields a schema does not use are
// zero and omitted; the des report records no toolchain or machine,
// because virtual time depends on neither.
type Report struct {
	Schema     string `json:"schema"` // "rme-bench-<experiment>/v1"
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	Passages   int    `json:"passages_per_measurement,omitempty"`
	Reps       int    `json:"reps,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Requests   int    `json:"requests_per_proc,omitempty"`
	Results    []Row  `json:"results"`
}

// Row is one measured configuration. The bench tag lists the experiments
// whose reports carry the field; a report encodes exactly those fields,
// in declaration order, so every schema keeps its field set and order.
type Row struct {
	Lock            string   `json:"lock" bench:"metrics,abort,map,des"` // native lock ("ba-log", "ba-sublog")
	Mode            string   `json:"mode" bench:"map,tracing"`           // map: hot | zipf | churn; tracing: none | off | on
	Regime          string   `json:"regime" bench:"des"`                 // anchor | ramp | crash-uniform | crash-storm | zipf | abort | straggler
	Workers         int      `json:"workers" bench:"metrics,abort,map,des,tracing"`
	Failures        int      `json:"failures" bench:"metrics,des"` // injected failure budget F
	Rate            float64  `json:"rate" bench:"abort"`           // fraction of attempts under a deadline
	RatePerSec      float64  `json:"rate_per_sec" bench:"des"`
	Requests        int      `json:"requests_per_proc" bench:"des"`
	Keys            int      `json:"keys" bench:"map,des"` // key-space size offered to workers
	ZipfS           float64  `json:"zipf_s" bench:"map"`   // 0 outside zipf mode
	Attempts        uint64   `json:"attempts" bench:"abort,map"`
	Passages        uint64   `json:"passages" bench:"metrics,abort,map,des,tracing"` // completed passages
	CrashedPassages int      `json:"crashed_passages" bench:"des"`
	AbortedPassages int      `json:"aborted_passages" bench:"des"`
	Aborted         uint64   `json:"aborted" bench:"abort"`       // attempts that backed out
	Crashes         uint64   `json:"crashes" bench:"metrics,des"` // failures actually injected
	Recoveries      uint64   `json:"recoveries" bench:"metrics"`
	VirtualMs       float64  `json:"virtual_ms" bench:"des"`
	Throughput      float64  `json:"throughput_per_sec" bench:"des"`
	NsPerPassage    float64  `json:"ns_per_passage" bench:"tracing"` // median over reps
	PassagesPerSec  float64  `json:"passages_per_sec" bench:"tracing"`
	OverheadPct     float64  `json:"overhead_pct" bench:"tracing"` // vs mode none at the same workers
	P50Ns           int64    `json:"p50_ns" bench:"des"`
	P90Ns           int64    `json:"p90_ns" bench:"des"`
	P99Ns           int64    `json:"p99_ns" bench:"des"`
	MeanNs          float64  `json:"mean_ns" bench:"des"`
	RMRMedian       int      `json:"rmr_median" bench:"metrics,abort,map,des"` // per passage, CC model
	RMRP99          int      `json:"rmr_p99" bench:"metrics,abort,map"`
	RMRMean         float64  `json:"rmr_mean" bench:"metrics,abort,map"`
	AbortRMRMedian  int      `json:"abort_rmr_median" bench:"abort"` // per aborted attempt
	AbortRMRP99     int      `json:"abort_rmr_p99" bench:"abort"`
	AbandonedHist   []uint64 `json:"abandoned_hist,omitempty" bench:"abort"` // aborts by deepest level
	FastPath        uint64   `json:"fast_path" bench:"metrics"`              // passages resolved at level 1
	SlowPath        uint64   `json:"slow_path" bench:"metrics"`
	MaxLevel        int      `json:"max_level" bench:"metrics,des"` // deepest BA-Lock level reached
	LevelHist       []uint64 `json:"level_hist" bench:"metrics"`    // passages by deepest level (1-based)
	FilterFAS       uint64   `json:"filter_fas" bench:"metrics"`
	Tries           uint64   `json:"splitter_tries" bench:"metrics"`
	MaxKeyOverlap   int      `json:"max_key_cs_overlap" bench:"des"`
	TraceHash       string   `json:"trace_hash" bench:"des"`
	DistinctKeys    int      `json:"distinct_keys" bench:"map"` // keys actually touched
	SlotWords       int      `json:"slot_words" bench:"map"`    // deterministic per-key footprint
	FootprintWords  int      `json:"footprint_words" bench:"map"`
	Segments        int      `json:"segments" bench:"map"`
	Instantiated    uint64   `json:"instantiated" bench:"map"`
	Recycled        uint64   `json:"recycled" bench:"map"`
	Evictions       uint64   `json:"evictions" bench:"map"`
}

// schemaOf names an experiment's report schema.
func schemaOf(experiment string) string { return "rme-bench-" + experiment + "/v1" }

// experiment returns the experiment the report's schema names.
func (r *Report) experiment() string {
	return strings.TrimSuffix(strings.TrimPrefix(r.Schema, "rme-bench-"), "/v1")
}

// MarshalJSON encodes the envelope and, per row, the fields the schema's
// experiment carries.
func (r *Report) MarshalJSON() ([]byte, error) {
	exp := r.experiment()
	rows := make([]json.RawMessage, len(r.Results))
	for i := range r.Results {
		v := reflect.ValueOf(r.Results[i])
		var b bytes.Buffer
		for j := 0; j < v.NumField(); j++ {
			f := v.Type().Field(j)
			name, omit, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !slices.Contains(strings.Split(f.Tag.Get("bench"), ","), exp) ||
				omit == "omitempty" && v.Field(j).Len() == 0 {
				continue
			}
			val, err := json.Marshal(v.Field(j).Interface())
			if err != nil {
				return nil, err
			}
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q:%s", name, val)
		}
		rows[i] = append(append([]byte{'{'}, b.Bytes()...), '}')
	}
	type envelope Report // no methods: encodes the plain struct
	return json.Marshal(struct {
		*envelope
		Results []json.RawMessage `json:"results"`
	}{(*envelope)(r), rows})
}

// JSON serializes the report (the BENCH_*.json format).
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// String renders the report as a text table.
func (r *Report) String() string { return r.Table().String() }

// tables describes each report's text table: a title, the Row fields it
// shows (by JSON name) and notes.
var tables = map[string]struct {
	title       string
	cols, notes []string
}{
	"metrics": {"Passage metrics, exact CC RMRs",
		[]string{"lock", "workers", "failures", "passages", "crashes", "rmr_median", "rmr_p99", "fast_path", "slow_path", "max_level"},
		[]string{
			"failures: unsafe failures F (crash immediately after a sensitive filter FAS) spread through the run",
			"expect: median flat in workers at F=0; growing sublinearly in F (the √F adaptivity bound)",
		}},
	"abort": {"Abortable passages, exact CC RMRs",
		[]string{"lock", "workers", "rate", "attempts", "passages", "aborted", "rmr_median", "rmr_p99", "abort_rmr_median", "abort_rmr_p99"},
		[]string{
			"rate: fraction of attempts made under a microsecond-scale deadline (TryLockFor)",
			"expect: rate 0 is plain Lock/Unlock, the metrics experiment's F=0 workload; abort_rmr_median bounded",
		}},
	"map": {"Keyed lock manager, exact CC RMRs",
		[]string{"lock", "mode", "workers", "keys", "zipf_s", "passages", "rmr_median", "rmr_p99", "slot_words", "footprint_words", "recycled", "evictions"},
		[]string{
			"hot: all workers on one key — median anchored to the metrics experiment's F=0 row (within 2x)",
			"churn: unique key per passage through 1 shard x 8 slots — footprint stays bounded, regions recycle",
		}},
	"tracing": {"Flight-recorder overhead, wall clock",
		[]string{"mode", "workers", "ns_per_passage", "passages_per_sec", "overhead_pct"},
		[]string{
			"none: no recorder configured; off: recorder present but disabled; on: full recording",
			"overhead is vs the none baseline at the same worker count; the gate bounds the median off row at 5%",
		}},
	"des": {"DES traffic trajectory, deterministic virtual time",
		[]string{"lock", "regime", "workers", "rate_per_sec", "throughput_per_sec", "p50_ns", "p90_ns", "p99_ns", "rmr_median", "crashes", "max_level"},
		[]string{
			"virtual-time discrete-event simulation: numbers are deterministic, not wall-clock",
			fmt.Sprintf("anchor rows (n=1, low rate) must cost exactly %d RMRs, the native workers=1 F=0 median", soloRMRs),
			"expect: p50 flat along the low ramp, then a knee into contention collapse",
		}},
}

// rowFields maps each JSON name to its Row field index.
var rowFields = func() map[string]int {
	m := map[string]int{}
	t := reflect.TypeOf(Row{})
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		m[name] = i
	}
	return m
}()

// Table renders the report for the text mode, with the run's machine,
// reps and seed in the title.
func (r *Report) Table() *Table {
	spec, ok := tables[r.experiment()]
	if !ok {
		return &Table{Title: "unknown report schema " + r.Schema}
	}
	var run []string
	if r.NumCPU > 0 {
		run = append(run, fmt.Sprintf("GOMAXPROCS=%d, num_cpu=%d", r.GOMAXPROCS, r.NumCPU))
	}
	if r.Reps > 0 {
		run = append(run, fmt.Sprintf("median of %d reps", r.Reps))
	}
	if r.Seed != 0 {
		run = append(run, fmt.Sprintf("seed=%d", r.Seed))
	}
	t := &Table{Title: spec.title, Columns: spec.cols, Notes: spec.notes}
	if run != nil {
		t.Title += " (" + strings.Join(run, ", ") + ")"
	}
	for _, row := range r.Results {
		v := reflect.ValueOf(row)
		cells := make([]any, len(spec.cols))
		for i, c := range spec.cols {
			cells[i] = v.Field(rowFields[c]).Interface()
		}
		t.Add(cells...)
	}
	return t
}

// newReport starts a native experiment's report, recording the machine
// its wall-clock and scheduling-dependent numbers come from.
func newReport(experiment string, passages int) *Report {
	return &Report{
		Schema:     schemaOf(experiment),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Passages:   passages,
	}
}

// nativeLocks maps benchmark lock names to rme options.
var nativeLocks = []struct {
	name string
	opts []rme.Option
}{
	{"ba-log", nil},
	{"ba-sublog", []rme.Option{rme.WithBase(rme.BaseArbTree)}},
}

// withMetrics returns lock options plus rme.WithMetrics and extra.
func withMetrics(lockOpts []rme.Option, extra ...rme.Option) []rme.Option {
	opts := append(append([]rme.Option(nil), lockOpts...), rme.WithMetrics())
	return append(opts, extra...)
}

// drive runs body for exactly passages iterations split over workers
// goroutines — the first passages%workers pids take one extra — released
// together from a start barrier, and returns the time from release to
// the last worker's finish.
func drive(workers, passages int, body func(pid, i int)) time.Duration {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for pid := 0; pid < workers; pid++ {
		per := passages / workers
		if pid < passages%workers {
			per++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				body(pid, i)
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// condense is the one metrics.Snapshot → Row reduction behind the
// metrics, abort and map rows; each report encodes the fields its schema
// carries.
func condense(s metrics.Snapshot) Row {
	return Row{
		Attempts:       s.Attempts,
		Passages:       s.Passages,
		Aborted:        s.Aborted,
		Crashes:        s.Crashes,
		Recoveries:     s.Recoveries,
		RMRMedian:      s.RMRHist.Quantile(0.5),
		RMRP99:         s.RMRHist.Quantile(0.99),
		RMRMean:        s.RMRHist.Mean(),
		AbortRMRMedian: s.AbortRMRHist.Quantile(0.5),
		AbortRMRP99:    s.AbortRMRHist.Quantile(0.99),
		AbandonedHist:  s.AbandonedHist,
		FastPath:       s.FastPath,
		SlowPath:       s.SlowPath,
		MaxLevel:       s.MaxLevel(),
		LevelHist:      s.LevelHist,
		FilterFAS:      s.FilterFAS,
		Tries:          s.SplitterTries,
	}
}
