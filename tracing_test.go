package rme_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rme"
	"rme/internal/flight"
)

// TestTracingDisabledNoop pins the WithTracing-off contract: no recording
// or profile is available, and SetTracing is a harmless no-op.
func TestTracingDisabledNoop(t *testing.T) {
	m, err := rme.New(2)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTracing(true) // no-op: tracing is wired only at New time
	m.Lock(0)
	m.Unlock(0)
	if _, ok := m.FlightRecording(); ok {
		t.Fatal("FlightRecording reported a recording without WithTracing")
	}
	if _, ok := m.FlightProfile(); ok {
		t.Fatal("FlightProfile reported a profile without WithTracing")
	}
	if m.TracingEnabled() {
		t.Fatal("TracingEnabled without WithTracing")
	}
}

// TestTracingFailureFree pins the recorded trajectory of failure-free
// passages on the real lock: every passage contributes a begin → filter →
// splitter → {fast|core} → arbitrator → cs-enter → cs-exit → end stream,
// nothing escalates past level 1, and the profile has samples for every
// pipeline phase that ran.
func TestTracingFailureFree(t *testing.T) {
	const n, per = 4, 25
	m, err := rme.New(n, rme.WithTracing(rme.TracingOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !m.TracingEnabled() {
		t.Fatal("tracing not enabled by WithTracing")
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

	rec, ok := m.FlightRecording()
	if !ok {
		t.Fatal("no recording")
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for pid, events := range rec.Procs {
		counts := map[flight.Kind]int{}
		for _, ev := range events {
			counts[ev.Kind]++
			if ev.Kind.IsPhase() && ev.Level != 1 {
				t.Errorf("p%d reached level %d without failures", pid, ev.Level)
			}
		}
		if counts[flight.KindCrash] != 0 || counts[flight.KindRecover] != 0 {
			t.Errorf("p%d recorded failures in a failure-free run", pid)
		}
		// The default ring (1024) holds all 25 passages' events.
		for _, k := range []flight.Kind{flight.KindPassageBegin, flight.KindPhaseFilter,
			flight.KindPhaseSplitter, flight.KindPhaseArbitrator, flight.KindCSEnter,
			flight.KindCSExit, flight.KindPassageEnd} {
			if counts[k] != per {
				t.Errorf("p%d %v count = %d, want %d", pid, k, counts[k], per)
			}
		}
		if counts[flight.KindPhaseFast]+counts[flight.KindPhaseCore] != per {
			t.Errorf("p%d fast %d + core %d != %d passages", pid,
				counts[flight.KindPhaseFast], counts[flight.KindPhaseCore], per)
		}
	}

	prof, ok := m.FlightProfile()
	if !ok || len(prof.Phases) == 0 {
		t.Fatalf("profile empty: %+v", prof)
	}
	var sawCS bool
	for _, s := range prof.Phases {
		if s.Level != 1 {
			t.Errorf("profile has level-%d samples without failures: %+v", s.Level, s)
		}
		if s.Phase == "cs" {
			sawCS = true
			if s.Count != n*per {
				t.Errorf("cs span count = %d, want %d", s.Count, n*per)
			}
		}
	}
	if !sawCS {
		t.Error("profile has no critical-section samples")
	}
}

// TestTracingRuntimeToggle pins SetTracing: recording stops and resumes
// without rebuilding the lock.
func TestTracingRuntimeToggle(t *testing.T) {
	m, err := rme.New(1, rme.WithTracing(rme.TracingOptions{Disabled: true}))
	if err != nil {
		t.Fatal(err)
	}
	if m.TracingEnabled() {
		t.Fatal("Disabled option ignored")
	}
	m.Lock(0)
	m.Unlock(0)
	if rec, _ := m.FlightRecording(); rec.Events() != 0 {
		t.Fatalf("%d events recorded while disabled", rec.Events())
	}
	m.SetTracing(true)
	m.Lock(0)
	m.Unlock(0)
	rec, _ := m.FlightRecording()
	if rec.Events() == 0 {
		t.Fatal("no events after SetTracing(true)")
	}
	m.SetTracing(false)
	before := rec.Events()
	m.Lock(0)
	m.Unlock(0)
	if rec, _ := m.FlightRecording(); rec.Events() != before {
		t.Fatal("events recorded after SetTracing(false)")
	}
}

// TestTracingWithMetricsAndFailures pins the full stack: tracing composed
// with WithMetrics (the label hook must observe through the counting
// port), failures recorded as crash events, and the recovery passage
// marked with a recover event.
func TestTracingWithMetricsAndFailures(t *testing.T) {
	fired := false
	hook := func(pid int, label string) bool {
		if !fired && label == "F1:fas" {
			fired = true
			return true
		}
		return false
	}
	m, err := rme.New(2, rme.WithMetrics(), rme.WithLabeledFailures(hook),
		rme.WithTracing(rme.TracingOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	for !m.Passage(0, func() {}) {
	}
	if !fired {
		t.Fatal("labeled hook never fired")
	}
	rec, _ := m.FlightRecording()
	counts := map[flight.Kind]int{}
	for _, ev := range rec.Procs[0] {
		counts[ev.Kind]++
	}
	if counts[flight.KindCrash] != 1 {
		t.Fatalf("crash events = %d, want 1", counts[flight.KindCrash])
	}
	if counts[flight.KindRecover] != 1 {
		t.Fatalf("recover events = %d, want 1", counts[flight.KindRecover])
	}
	if counts[flight.KindPassageEnd] != 1 {
		t.Fatalf("passage-end events = %d, want 1", counts[flight.KindPassageEnd])
	}
	s, _ := m.MetricsSnapshot()
	if s.Crashes != 1 || s.Passages != 1 {
		t.Fatalf("metrics disagree with flight events: %+v", s)
	}
}

// TestTracingHandoffObserved forces a WR-Lock handoff — process 1 queues
// behind process 0's held lock, so 0's release passes ownership directly —
// and checks the label hook surfaces it as a flight event attributed to
// the releasing process.
func TestTracingHandoffObserved(t *testing.T) {
	m, err := rme.New(2, rme.WithTracing(rme.TracingOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	handoffs := func() int {
		rec, _ := m.FlightRecording()
		total := 0
		for _, events := range rec.Procs {
			for _, ev := range events {
				if ev.Kind == flight.KindHandoff {
					total++
				}
			}
		}
		return total
	}
	// The handoff write happens only if the successor linked before the
	// release; yields give process 1 time to park in the spin loop. On a
	// uniprocessor one round is already deterministic, elsewhere retry.
	for attempt := 0; attempt < 20 && handoffs() == 0; attempt++ {
		m.Lock(0)
		done := make(chan struct{})
		go func() {
			m.Lock(1)
			m.Unlock(1)
			close(done)
		}()
		for i := 0; i < 5000; i++ {
			runtime.Gosched()
		}
		m.Unlock(0)
		<-done
	}
	if handoffs() == 0 {
		t.Error("no handoff events after 20 forced-queueing rounds")
	}
}

// TestConcurrentTracingSnapshots is the tracing acceptance stress, run
// under -race in CI alongside TestRaceStress: all workers record passages
// with injected failures while samplers concurrently snapshot the rings
// and profile. Every snapshot must validate — tear-free streams with
// strictly monotone per-process timestamps — and the final event counts
// must be consistent with the work done.
func TestConcurrentTracingSnapshots(t *testing.T) {
	n := 8
	passages := 300
	maxInjected := int64(200)
	if testing.Short() {
		passages = 50
		maxInjected = 30
	}
	var injected atomic.Int64
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 404))
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
	// Outside -short, every process emits more events than its ring's
	// flight.DefaultRingSize slots, so the samplers race overwrites
	// (checked after the run).
	m, err := rme.New(n, rme.WithTracing(rme.TracingOptions{}), rme.WithFailures(fail))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec, _ := m.FlightRecording()
			if err := rec.Validate(); err != nil {
				t.Errorf("mid-flight snapshot: %v", err)
				return
			}
			_, _ = m.FlightProfile()
		}
	}()

	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := 0; k < passages; k++ {
				for !m.Passage(pid, func() {}) {
				}
			}
		}(pid)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	rec, _ := m.FlightRecording()
	if err := rec.Validate(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	for pid, events := range rec.Procs {
		// At quiescence the last event of every process closes its final
		// passage.
		if len(events) == 0 {
			t.Fatalf("p%d recorded nothing", pid)
		}
		if last := events[len(events)-1].Kind; last != flight.KindPassageEnd {
			t.Errorf("p%d last event = %v, want passage-end", pid, last)
		}
		if first := events[0].Seq; !testing.Short() && first == 0 {
			t.Errorf("p%d still holds its first event: the ring never overwrote", pid)
		}
	}
}
