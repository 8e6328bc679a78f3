// Package rme_test holds the root benchmarks in an external test package:
// internal/bench imports rme (for the native wall-clock runner), so an
// in-package test file importing internal/bench would be a cycle.
package rme_test

// One benchmark per artifact of the paper's evaluation (see DESIGN.md's
// experiment index). The simulator-backed benchmarks report model-exact
// RMR metrics via b.ReportMetric; the native benchmarks report wall-clock
// throughput of the same algorithms under real goroutine concurrency.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rme"
	"rme/internal/bench"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/workload"
)

// --- Native throughput (wall clock) ---------------------------------------

func BenchmarkNativeUncontended(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		base rme.Base
	}{
		{"ba-tournament", 1, rme.BaseTournament},
		{"ba-arbtree", 1, rme.BaseArbTree},
		// rme.New(8), the lock of every rmeperf workload: one process
		// alone on it runs mutex-solo's passage.
		{"n=8", 8, rme.BaseTournament},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := rme.New(tc.n, rme.WithBase(tc.base))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Lock(0)
				m.Unlock(0)
			}
		})
	}
	// Reference: the standard library's (non-recoverable) mutex.
	b.Run("sync.Mutex", func(b *testing.B) {
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock() //nolint:staticcheck // benchmark shape mirrors the others
		}
	})
}

func BenchmarkNativeContended(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m, err := rme.New(workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			for pid := 0; pid < workers; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock(pid)
						m.Unlock(pid)
					}
				}(pid)
			}
			wg.Wait()
		})
	}
}

// BenchmarkMap prices one rme.Map passage at n = 8 (the region of a
// 3-level BA-Lock): a hit on a live key; a miss, where two keys alternate
// over a single region so every passage evicts the other key and binds
// its region to the new one; and evict, a miss on a full default-size
// shard, where 65 keys cycle over 64 slots so every passage evicts the
// least recently used of 64 live keys. carve prices a region's first
// use: each iteration builds a Map and runs one passage on each of 64
// fresh keys, so its per-carve figures include NewMap spread over them.
func BenchmarkMap(b *testing.B) {
	cs := func() {}
	cycled := make([]string, 65)
	for i := range cycled {
		cycled[i] = fmt.Sprintf("key-%d", i)
	}
	for _, tc := range []struct {
		name string
		opts []rme.Option
		keys []string
	}{
		{"hit", nil, []string{"hot"}},
		{"miss", []rme.Option{rme.WithShards(1), rme.WithSegmentSlots(1)}, []string{"a", "b"}},
		{"evict", []rme.Option{rme.WithShards(1)}, cycled},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ma, err := rme.NewMap(8, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range tc.keys {
				ma.Passage(0, k, cs) // carve the regions up front
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ma.Passage(0, tc.keys[i%len(tc.keys)], cs)
			}
		})
	}
	b.Run("carve", func(b *testing.B) {
		const carves = 64
		keys := make([]string, carves)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ma, err := rme.NewMap(8, rme.WithShards(1), rme.WithSegmentSlots(carves))
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys {
				ma.Passage(0, k, cs)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		total := float64(b.N * carves)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/carve")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/carve")
	})
}

// --- Table 1: RMRs per passage under the three failure scenarios ----------

func BenchmarkTable1(b *testing.B) {
	for _, lock := range []string{"wr", "tournament", "arbtree", "sa", "ba-log", "ba-sublog"} {
		for _, sc := range workload.Scenarios(8) {
			b.Run(fmt.Sprintf("%s/%s", lock, sc.Name), func(b *testing.B) {
				var last bench.Metrics
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(bench.Point{
						Lock: lock, N: 8, Model: memory.CC, Requests: 3,
						Seed: int64(i + 1), Plan: sc.Plan,
					})
					if err != nil {
						b.Fatal(err)
					}
					if m.CheckErr != nil {
						b.Fatal(m.CheckErr)
					}
					last = m
				}
				b.ReportMetric(last.FFMean, "RMRs/passage")
				b.ReportMetric(float64(last.AllMax), "RMRs/passage-max")
				b.ReportMetric(float64(last.Crashes), "crashes")
			})
		}
	}
}

// --- Figure 1: fragmentation ----------------------------------------------

func BenchmarkFigure1Fragmentation(b *testing.B) {
	plan := func(n int) sim.FailurePlan {
		return sim.PlanSeq{
			&sim.CrashOnLabel{PID: 3, Label: "wr:fas", After: true},
			&sim.CrashOnLabel{PID: 6, Label: "wr:fas", After: true},
		}
	}
	var last bench.Metrics
	for i := 0; i < b.N; i++ {
		m, err := bench.Run(bench.Point{Lock: "wr", N: 8, Model: memory.CC, Requests: 2,
			Seed: 21, Plan: plan, CSOps: 8})
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(float64(last.Crashes), "unsafe-failures")
	b.ReportMetric(float64(last.Overlap), "max-CS-occupancy")
}

// --- Theorems 5.17/5.18: adaptivity and escalation -------------------------

func BenchmarkAdaptivity(b *testing.B) {
	for _, f := range []int{0, 4, 16, 64} {
		b.Run(fmt.Sprintf("F=%d", f), func(b *testing.B) {
			var plan func(int) sim.FailurePlan
			if f > 0 {
				ff := f
				plan = func(n int) sim.FailurePlan {
					return &sim.UnsafeBudget{Total: ff, Rate: 0.3, MaxPerProcess: (ff + n - 1) / n}
				}
			}
			var last bench.Metrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(bench.Point{Lock: "ba-log", N: 16, Model: memory.CC,
					Requests: 4 + f/8, Seed: int64(i + 11), Plan: plan, RecordOps: true})
				if err != nil {
					b.Fatal(err)
				}
				if m.CheckErr != nil {
					b.Fatal(m.CheckErr)
				}
				last = m
			}
			b.ReportMetric(last.AffMean, "RMRs/affected-passage")
			b.ReportMetric(float64(last.AffMax), "RMRs/affected-passage-max")
			b.ReportMetric(float64(last.MaxDepth), "escalation-depth")
		})
	}
}

// --- Theorem 7.1: batch failures -------------------------------------------

func BenchmarkBatchFailures(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			kk := k
			plan := func(n int) sim.FailurePlan {
				pids := make([]int, kk)
				for i := range pids {
					pids[i] = i % n
				}
				return workload.Batch(60, pids)
			}
			var last bench.Metrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(bench.Point{Lock: "ba-log", N: 16, Model: memory.CC,
					Requests: 4, Seed: int64(i + 1), Plan: plan, RecordOps: true})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.MaxDepth), "escalation-depth")
			b.ReportMetric(last.FFMean, "RMRs/passage")
		})
	}
}

// --- Theorem 4.7: O(1) components -------------------------------------------

func BenchmarkComponents(b *testing.B) {
	for _, model := range []memory.Model{memory.CC, memory.DSM} {
		for _, n := range []int{2, 32} {
			b.Run(fmt.Sprintf("wr/%v/n=%d", model, n), func(b *testing.B) {
				var last bench.Metrics
				for i := 0; i < b.N; i++ {
					m, err := bench.Run(bench.Point{Lock: "wr", N: n, Model: model,
						Requests: 4, Seed: int64(i + 1)})
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				b.ReportMetric(float64(last.FFMax), "RMRs/passage-max")
			})
		}
	}
}

// --- Section 7.2: reclamation space bound -----------------------------------

func BenchmarkReclaimSpace(b *testing.B) {
	for _, lock := range []string{"wr", "wr-pool"} {
		b.Run(lock, func(b *testing.B) {
			var last bench.Metrics
			for i := 0; i < b.N; i++ {
				m, err := bench.Run(bench.Point{Lock: lock, N: 8, Model: memory.CC,
					Requests: 30, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.Arena), "arena-words")
		})
	}
}
