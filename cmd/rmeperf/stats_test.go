package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// hist returns the samples 1..n, shuffled into two halves and merged, so
// every case also goes through sparseOf and merge.
func hist(n int) sparse {
	var odd, even []uint32
	for v := n; v >= 1; v-- {
		if v%2 == 1 {
			odd = append(odd, uint32(v))
		} else {
			even = append(even, uint32(v))
		}
	}
	return merge(sparseOf(odd), sparseOf(even))
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		err  bool
	}{
		{n: 20, q: 0.5, want: 10},     // rank ⌈10⌉ = 10, 10 beyond
		{n: 21, q: 0.5, want: 11},     // rank ⌈10.5⌉ = 11
		{n: 100, q: 0.5, want: 50},    // 50 beyond
		{n: 100, q: 0.9, want: 90},    // exactly 10 beyond
		{n: 100, q: 0.91, err: true},  // 9 beyond
		{n: 1000, q: 0.99, want: 990}, // exactly 10 beyond
		{n: 999, q: 0.99, err: true},  // rank 990, 9 beyond
		{n: 19, q: 0.5, err: true},    // rank 10, 9 beyond
		{n: 0, q: 0.5, err: true},
		{n: 11, q: 0, want: 1}, // the minimum, 10 beyond
	} {
		got, err := hist(tc.n).quantile(tc.q)
		if tc.err {
			if !errors.Is(err, errTooFew) {
				t.Errorf("quantile(1..%d, %g) = %v, %v; want errTooFew", tc.n, tc.q, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("quantile(1..%d, %g) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
}

func TestQuantileWithRepeats(t *testing.T) {
	// 25 samples: 1 1 2 2 3 3 3 4 5 5 5 6 6 6 6 7 8 8 9 10 11 12 13 14 15
	raw := []uint32{5, 1, 5, 9, 3, 3, 3, 7, 5, 1, 2, 8, 8, 4, 6, 6, 6, 6, 2, 10, 11, 12, 13, 14, 15}
	s := merge(sparseOf(raw[:10]), sparseOf(raw[10:]))
	if s.total() != len(raw) || len(s) != 15 {
		t.Fatalf("merged %d samples into %d buckets, want 25 into 15", s.total(), len(s))
	}
	for _, tc := range []struct{ q, want float64 }{{0.01, 1}, {0.25, 3}, {0.5, 6}, {0.6, 6}} {
		if got, err := s.quantile(tc.q); err != nil || got != tc.want {
			t.Errorf("q=%g: %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
	if _, err := s.quantile(0.99); !errors.Is(err, errTooFew) {
		t.Errorf("p99 of 25 samples: err = %v, want errTooFew", err)
	}
}

func TestCountQuantileGrouped(t *testing.T) {
	for _, tc := range []struct {
		s    sparse
		q    float64
		want float64
	}{
		{sparse{{31, 100}}, 0.5, 31},
		{sparse{{31, 1000}}, 0.99, 31.49},
		{sparse{{30, 25}, {31, 50}, {35, 25}}, 0.5, 31},
		{sparse{{30, 25}, {31, 50}, {35, 25}}, 0.25, 30.5},
		{sparse{{30, 25}, {31, 50}, {35, 25}}, 0.6, 31.2},
		// Two samples moving across the 34|35 boundary move the value by
		// 0.04, where the nearest-rank median jumps from 34 to 35.
		{sparse{{34, 51}, {35, 49}}, 0.5, 34.5 - 1.0/51},
		{sparse{{34, 49}, {35, 51}}, 0.5, 34.5 + 1.0/51},
	} {
		got, err := tc.s.countQuantile(tc.q)
		if err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("countQuantile(%v, %g) = %v, %v; want %v", tc.s, tc.q, got, err, tc.want)
		}
		if near, _ := tc.s.quantile(tc.q); math.Abs(got-near) > 0.5+1e-9 {
			t.Errorf("countQuantile(%v, %g) = %v, more than ½ from the nearest-rank %v", tc.s, tc.q, got, near)
		}
	}
	if _, err := hist(19).countQuantile(0.5); !errors.Is(err, errTooFew) {
		t.Errorf("median of 19 samples: err = %v, want errTooFew", err)
	}
}

func TestRecorderTake(t *testing.T) {
	r := newRecorder()
	for _, v := range []int64{7, 3, 7, -2, denseNs + 5, denseNs + 5, 3} {
		r.add(v)
	}
	got := r.take()
	want := sparse{{0, 1}, {3, 2}, {7, 2}, {denseNs + 5, 2}}
	if len(got) != len(want) {
		t.Fatalf("take = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("take = %v, want %v", got, want)
		}
	}
	if again := r.take(); len(again) != 0 {
		t.Fatalf("second take = %v, want empty", again)
	}
}

// The quartiles must read as Python's statistics.quantiles(v, n=4), the
// method the acceptance spread is computed with; the expected values
// below are what Python prints.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 30}, 5, 20, 35}, // Python extrapolates past two points
		{[]float64{612, 598, 640, 605, 601, 588, 633, 620, 596, 610}, 597.5, 607.5, 623.25},
	} {
		s := summarize(tc.v)
		if s.q1 != tc.q1 || s.median != tc.median || s.q3 != tc.q3 {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v; want %v %v %v", tc.v, s.q1, s.median, s.q3, tc.q1, tc.median, tc.q3)
		}
	}
	if s := summarize(seq(10)); math.Abs(s.iqrShare()-5.5/5.5) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", s.iqrShare())
	}
}

// The report's name/unit lines are read by people and scripts alike;
// their layout is pinned here.
func TestFormatLineGolden(t *testing.T) {
	ms := []metric{
		{name: "passage_ns_p50", unit: "ns", value: 571, spread: 0.0421, n: 100, basis: "windows"},
		{name: "throughput_ops_s", unit: "ops/s", value: 1646332.5, spread: 0.081, n: 100, basis: "windows"},
		single("rmr_p50", "RMRs", 31, 40000, "samples"),
		single("footprint_words", "words", 2728, 1, "lock"),
		{name: "setup_s", unit: "s", value: 0.06131234, spread: 0.12, n: 5, basis: "set-ups"},
		single("core.fast_path_ratio", "ratio", 0.99871, 12000, "passages"),
		{name: "rme.driver.ns_p50", unit: "ns", value: -3.5, spread: math.NaN()},
	}
	want := strings.Join([]string{
		"  passage_ns_p50                              571 ns      IQR   4.2%  n=100 windows",
		"  throughput_ops_s                   1646332.5000 ops/s   IQR   8.1%  n=100 windows",
		"  rmr_p50                                      31 RMRs                n=40000 samples",
		"  footprint_words                            2728 words               n=1 lock",
		"  setup_s                                  0.0613 s       IQR  12.0%  n=5 set-ups",
		"  core.fast_path_ratio                     0.9987 ratio               n=12000 passages",
		"  rme.driver.ns_p50                       -3.5000 ns",
	}, "\n")
	var got []string
	for _, m := range ms {
		got = append(got, formatLine(m))
	}
	if g := strings.Join(got, "\n"); g != want {
		t.Errorf("report lines:\n%s\nwant:\n%s", g, want)
	}
}
