package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// minBeyond is the number of samples that must lie above a percentile's
// rank before the percentile is reported: with fewer, the value is set by
// a handful of outliers and would not repeat from run to run.
const minBeyond = 10

// errTooFew reports a percentile refused for lack of samples beyond it.
var errTooFew = errors.New("fewer than 10 samples beyond the percentile")

// rankIndex returns the 0-based index of the nearest-rank q-quantile of n
// sorted samples: the smallest value with at least ⌈q·n⌉ samples at or
// below it. It refuses when fewer than minBeyond samples lie above it.
func rankIndex(n int, q float64) (int, error) {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, n, errTooFew)
	}
	return rank - 1, nil
}

// bucket is one distinct value of a histogram and its sample count.
type bucket struct {
	v, n uint32
}

// sparse is an exact histogram: distinct values in increasing order. It
// holds integer samples (ns or counts) without losing any resolution, so
// its percentiles are exact nearest-rank percentiles.
type sparse []bucket

func (s sparse) total() int {
	t := 0
	for _, b := range s {
		t += int(b.n)
	}
	return t
}

// quantile returns the nearest-rank q-quantile of the samples.
func (s sparse) quantile(q float64) (float64, error) {
	i, err := rankIndex(s.total(), q)
	if err != nil {
		return 0, err
	}
	for _, b := range s {
		if i < int(b.n) {
			return float64(b.v), nil
		}
		i -= int(b.n)
	}
	panic("unreachable: rank beyond total")
}

// countQuantile returns the grouped-data q-quantile of integer counts:
// the samples equal to a count c are taken as spread evenly over
// [c−½, c+½], and the value is read off at rank q·n. It lies within ½ of
// the nearest-rank quantile, but where that one jumps a whole count when
// the share of samples on either side of a boundary moves by a little, this
// one moves by a little. It refuses what quantile refuses.
func (s sparse) countQuantile(q float64) (float64, error) {
	n := s.total()
	if _, err := rankIndex(n, q); err != nil {
		return 0, err
	}
	rank, below := q*float64(n), 0.0
	for _, b := range s {
		if f := float64(b.n); below+f >= rank {
			return float64(b.v) - 0.5 + (rank-below)/f, nil
		}
		below += float64(b.n)
	}
	panic("unreachable: rank beyond total")
}

// merge returns the union of two histograms.
func merge(a, b sparse) sparse {
	out := make(sparse, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].v < b[0].v:
			out, a = append(out, a[0]), a[1:]
		case b[0].v < a[0].v:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, bucket{a[0].v, a[0].n + b[0].n})
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// sparseOf builds a histogram from raw samples.
func sparseOf(vals []uint32) sparse {
	vs := slices.Clone(vals)
	slices.Sort(vs)
	var out sparse
	for _, v := range vs {
		if k := len(out) - 1; k >= 0 && out[k].v == v {
			out[k].n++
		} else {
			out = append(out, bucket{v, 1})
		}
	}
	return out
}

// denseNs is the range of the recorder's counter array: 131 µs covers
// every passage of the four workloads but the rare stragglers, which
// go to the overflow list.
const denseNs = 1 << 17

// recorder collects integer samples (ns) at the cost of one increment
// each, so recording does not disturb the passages it times.
type recorder struct {
	counts []uint32
	lo, hi int // range of counts touched since the last reset
	over   []uint32
}

func newRecorder() *recorder {
	return &recorder{counts: make([]uint32, denseNs), lo: denseNs}
}

func (r *recorder) add(v int64) {
	switch {
	case v < 0:
		v = 0
	case v >= denseNs:
		if v > math.MaxUint32 {
			v = math.MaxUint32
		}
		r.over = append(r.over, uint32(v))
		return
	}
	r.counts[v]++
	r.lo = min(r.lo, int(v))
	r.hi = max(r.hi, int(v))
}

// take returns the samples recorded since the last take and resets.
func (r *recorder) take() sparse {
	var out sparse
	for v := r.lo; v <= r.hi; v++ {
		if c := r.counts[v]; c != 0 {
			out = append(out, bucket{uint32(v), c})
			r.counts[v] = 0
		}
	}
	r.lo, r.hi = denseNs, 0
	out = merge(out, sparseOf(r.over))
	r.over = r.over[:0]
	return out
}

// summary is the spread of one metric's per-window values.
type summary struct {
	median, q1, q3 float64
	n              int
}

// summarize returns the median and the quartiles of vals, the quartiles
// computed as Python's statistics.quantiles(vals, n=4) does (the
// "exclusive" method), so a spread printed here reads the same as one a
// script computes from the printed values.
func summarize(vals []float64) summary {
	s := summary{n: len(vals)}
	if len(vals) == 0 {
		return summary{median: math.NaN(), q1: math.NaN(), q3: math.NaN()}
	}
	v := slices.Clone(vals)
	slices.Sort(v)
	if k := len(v); k%2 == 1 {
		s.median = v[k/2]
	} else {
		s.median = (v[k/2-1] + v[k/2]) / 2
	}
	if len(v) < 2 {
		s.q1, s.q3 = s.median, s.median
		return s
	}
	m := len(v) + 1
	quart := func(i int) float64 {
		j := min(max(i*m/4, 1), len(v)-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.q1, s.q3 = quart(1), quart(3)
	return s
}

// iqrShare returns the interquartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// metric is one reported number. spread is the IQR across the windows
// (or runs) the value is the median of, as a share of the value; NaN
// when the value is not a median (counts, single measurements).
type metric struct {
	name   string
	unit   string
	value  float64
	spread float64
	n      int    // windows, passages or runs the value rests on
	basis  string // what n counts
}

// fromSummary turns a window summary into a metric.
func fromSummary(name, unit string, s summary) metric {
	return metric{name: name, unit: unit, value: s.median, spread: s.iqrShare(), n: s.n, basis: "windows"}
}

// formatLine renders one metric as a report line: name, value, unit,
// then the spread and what the value rests on.
func formatLine(m metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-32s %14s %-7s", m.name, formatValue(m.value), m.unit)
	if !math.IsNaN(m.spread) {
		fmt.Fprintf(&b, " IQR %5.1f%%", 100*m.spread)
	} else {
		b.WriteString("           ")
	}
	if m.n > 0 {
		fmt.Fprintf(&b, "  n=%d %s", m.n, m.basis)
	}
	return strings.TrimRight(b.String(), " ")
}

// formatValue prints integers without a fraction and other values with
// four significant decimals.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4f", v)
}
