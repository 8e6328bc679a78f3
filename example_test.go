package rme_test

import (
	"fmt"

	"rme"
)

// The zero-ceremony path: create a mutex for a fixed set of processes and
// run passages. Without failure injection a Passage always succeeds.
func ExampleNew() {
	m, err := rme.New(4)
	if err != nil {
		panic(err)
	}
	counter := 0
	for pid := 0; pid < 4; pid++ {
		m.Passage(pid, func() { counter++ })
	}
	fmt.Println(counter)
	// Output: 4
}

// Lock and Unlock expose the paper's segments directly: Lock runs Recover
// and Enter, Unlock runs Exit. Calling Lock again after a crash — with
// the same process identifier — performs recovery.
func ExampleMutex_Lock() {
	m, err := rme.New(2)
	if err != nil {
		panic(err)
	}
	m.Lock(0)
	fmt.Println("process 0 holds the lock")
	m.Unlock(0)
	m.Lock(1)
	fmt.Println("process 1 holds the lock")
	m.Unlock(1)
	// Output:
	// process 0 holds the lock
	// process 1 holds the lock
}

// A crash inside the critical section is recovered by retrying the
// passage: the bounded critical-section re-entry property guarantees the
// crashed process re-enters before any other process, so an idempotent
// critical section completes exactly once.
func ExampleCrash() {
	m, err := rme.New(2)
	if err != nil {
		panic(err)
	}
	runs := 0
	for !m.Passage(0, func() {
		runs++
		if runs == 1 {
			rme.Crash(0) // die while holding the lock
		}
	}) {
		fmt.Println("crashed; recovering")
	}
	fmt.Println("critical section ran", runs, "times")
	// Output:
	// crashed; recovering
	// critical section ran 2 times
}

// WithMetrics attaches the exact RMR accounting layer; MetricsSnapshot
// reads a tear-free aggregate at any time. Failure-free passages resolve
// at BA-Lock level 1, the fast path.
func ExampleWithMetrics() {
	m, err := rme.New(2, rme.WithMetrics())
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		m.Passage(0, func() {})
	}
	s, ok := m.MetricsSnapshot()
	fmt.Println(ok, s.Passages, s.FastPath, s.Crashes)
	// Output: true 3 3 0
}

// WithTracing attaches the flight recorder: per-process rings of compact
// passage events. FlightRecording snapshots them tear-free; the result
// serializes to the rme-flight/v1 interchange format that cmd/rmetrace
// renders as a Chrome trace or ASCII timeline.
func ExampleWithTracing() {
	m, err := rme.New(2, rme.WithTracing(rme.TracingOptions{}))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		m.Passage(0, func() {})
	}
	rec, ok := m.FlightRecording()
	if !ok {
		panic("recorder not configured")
	}
	enters := 0
	for _, ev := range rec.Procs[0] {
		if ev.Kind.String() == "cs-enter" {
			enters++
		}
	}
	fmt.Println(rec.Source, rec.Clock, enters)
	// Output: native ns 3
}

// WithBase selects the base lock under the filter levels.
func ExampleWithBase() {
	m, err := rme.New(8, rme.WithBase(rme.BaseArbTree)) // O(log n / log log n) worst case
	if err != nil {
		panic(err)
	}
	ok := m.Passage(3, func() {})
	fmt.Println(ok)
	// Output: true
}
