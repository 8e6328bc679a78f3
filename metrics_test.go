package rme_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rme"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// TestMetricsDisabledNoop pins the WithMetrics-off contract: no snapshot
// is available and passages run on unwrapped ports.
func TestMetricsDisabledNoop(t *testing.T) {
	m, err := rme.New(2)
	if err != nil {
		t.Fatal(err)
	}
	m.Lock(0)
	m.Unlock(0)
	if _, ok := m.MetricsSnapshot(); ok {
		t.Fatal("MetricsSnapshot reported metrics without WithMetrics")
	}
}

// TestRegistryMatchesNew ties the simulator's "ba-log" and "ba-sublog" to
// the locks rme.New ships, and the simulator's CC accounting to the
// native one: pid 0's failure-free passages, run alone (lowest pid
// first), cost the same RMRs passage for passage. The simulator's first
// passage costs exactly one more, its cold read of the critical
// section's scratch word; the native critical section is empty.
func TestRegistryMatchesNew(t *testing.T) {
	const passages = 200
	for _, c := range []struct {
		lock string
		base rme.Base
	}{{"ba-log", rme.BaseTournament}, {"ba-sublog", rme.BaseArbTree}} {
		spec, err := workload.Lookup(c.lock)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 8} {
			r, err := sim.New(sim.Config{N: n, Model: memory.CC, Requests: passages, Seed: 1,
				Sched: sim.PrioritySched{Less: func(a, b int) bool { return a < b }}}, spec.New)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for _, p := range res.Passages {
				if p.PID == 0 {
					want = append(want, p.RMRs)
				}
			}
			if len(want) != passages {
				t.Fatalf("%s n=%d: simulator ran %d passages of pid 0, want %d", c.lock, n, len(want), passages)
			}
			want[0]--
			m, err := rme.New(n, rme.WithBase(c.base), rme.WithMetrics())
			if err != nil {
				t.Fatal(err)
			}
			var total uint64
			for i, w := range want {
				m.Passage(0, func() {})
				s, _ := m.MetricsSnapshot()
				if got := int64(s.RMRs - total); got != w {
					t.Errorf("%s n=%d passage %d: rme.New costs %d RMRs, the simulator %d (less its cold CS read)", c.lock, n, i, got, w)
					break
				}
				total = s.RMRs
			}
		}
	}
}

// TestMetricsFailureFree pins the F=0 invariants end to end on the real
// lock: every passage is counted, none escalates past level 1, and the
// per-passage RMR histogram holds exactly the passage count.
func TestMetricsFailureFree(t *testing.T) {
	const n, per = 4, 50
	m, err := rme.New(n, rme.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				m.Lock(pid)
				m.Unlock(pid)
			}
		}(pid)
	}
	wg.Wait()
	s, ok := m.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics not enabled")
	}
	if s.Passages != n*per {
		t.Fatalf("passages = %d, want %d", s.Passages, n*per)
	}
	if s.Crashes != 0 || s.Recoveries != 0 || s.SlowPath != 0 {
		t.Fatalf("failure-free run recorded failures: %+v", s)
	}
	if s.MaxLevel() != 1 {
		t.Fatalf("escalated to level %d with no failures", s.MaxLevel())
	}
	if s.FastPath != n*per || s.RMRHist.Total() != n*per {
		t.Fatalf("fast=%d hist=%d, want both %d", s.FastPath, s.RMRHist.Total(), n*per)
	}
	if s.FilterFAS == 0 || s.SplitterTries == 0 || s.RMRs == 0 {
		t.Fatalf("label counters empty: %+v", s)
	}
}

// TestRaceStressMetrics is the metrics-enabled counterpart of
// TestRaceStress, run under -race in CI: concurrent passages with
// injected failures while a sampler goroutine reads snapshots mid-flight.
// The counters must be tear-free (snapshots only ever grow) and the final
// snapshot must sum exactly: completed passages equal the work done, the
// level histogram and the RMR histogram each hold exactly the passage
// count, and crashes equal the injected failure count.
func TestRaceStressMetrics(t *testing.T) {
	n := 8
	passages := 400
	maxInjected := int64(300)
	if testing.Short() {
		passages = 60
		maxInjected = 40
	}
	var injected atomic.Int64
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 202))
	}
	fail := func(pid int) bool {
		if injected.Load() >= maxInjected {
			return false
		}
		if rngs[pid].Float64() < 0.01 {
			injected.Add(1)
			return true
		}
		return false
	}
	m, err := rme.New(n, rme.WithMetrics(), rme.WithFailures(fail))
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent sampler: snapshots must be consistent (monotone totals)
	// while passages are in flight.
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, _ := m.MetricsSnapshot()
			if s.Passages < last {
				t.Error("snapshot passage count went backwards")
				return
			}
			last = s.Passages
		}
	}()

	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < passages; k++ {
				for !m.Passage(pid, func() {}) {
					// Crashed mid-acquisition: recover and retry.
				}
			}
		}(pid)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	s, ok := m.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics not enabled")
	}
	want := uint64(n * passages)
	inj := uint64(injected.Load())
	if s.Passages != want {
		t.Fatalf("passages = %d, want exactly %d", s.Passages, want)
	}
	if s.Crashes != inj {
		t.Fatalf("crashes = %d, want %d injected", s.Crashes, inj)
	}
	if s.FastPath+s.SlowPath != want {
		t.Fatalf("fast %d + slow %d != %d", s.FastPath, s.SlowPath, want)
	}
	var levels uint64
	for _, v := range s.LevelHist {
		levels += v
	}
	if levels != want {
		t.Fatalf("level hist sums to %d, want %d", levels, want)
	}
	if s.RMRHist.Total() != want {
		t.Fatalf("RMR hist holds %d passages, want %d", s.RMRHist.Total(), want)
	}
	if inj == 0 {
		t.Fatal("no failures injected; the stress run must exercise recovery")
	}
	if s.Recoveries == 0 || s.Recoveries > s.Crashes {
		t.Fatalf("recoveries = %d with %d crashes", s.Recoveries, s.Crashes)
	}
}

// TestMetricsLabeledFailures pins WithLabeledFailures: a hook keyed on
// the filter FAS label fires, the crash is accounted, and the passage
// completes on retry. Composed with WithFailures, either hook crashes the
// process.
func TestMetricsLabeledFailures(t *testing.T) {
	for _, plainToo := range []bool{false, true} {
		fired := false
		hook := func(pid int, label string) bool {
			if !fired && label == "F1:fas" {
				fired = true
				return true
			}
			return false
		}
		opts := []rme.Option{rme.WithMetrics(), rme.WithLabeledFailures(hook)}
		crashes := 1
		if plainToo {
			plainFired := false
			opts = append(opts, rme.WithFailures(func(pid int) bool {
				defer func() { plainFired = true }()
				return !plainFired
			}))
			crashes = 2
		}
		m, err := rme.New(2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for !m.Passage(0, func() { got++ }) {
		}
		if !fired {
			t.Fatalf("plain hook too = %v: labeled hook never saw the filter FAS", plainToo)
		}
		if got != 1 {
			t.Fatalf("plain hook too = %v: critical section ran %d times, want 1", plainToo, got)
		}
		s, _ := m.MetricsSnapshot()
		if int(s.Crashes) != crashes || s.Passages != 1 || int(s.Recoveries) != crashes {
			t.Fatalf("plain hook too = %v: snapshot %+v, want %d crashes, 1 passage, %d recoveries",
				plainToo, s, crashes, crashes)
		}
	}
}
