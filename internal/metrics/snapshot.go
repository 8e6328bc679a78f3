package metrics

import (
	"fmt"
	"strings"
)

// Snapshot is a tear-free aggregate view of passage metrics. Both the
// native backend (Recorder.Snapshot) and the simulator
// (sim.Result.MetricsSnapshot) produce this type, so measured and
// logical numbers are directly comparable.
type Snapshot struct {
	// Attempts counts passages started. At quiescence
	// Attempts == Passages + Aborted + CrashedAttempts (the abort CI gate
	// asserts exactly this identity); while passages are in flight the
	// right side lags by the number of open passages.
	Attempts uint64 `json:"attempts"`
	// Passages counts successfully completed passages
	// (Recover→Enter→CS→Exit with no crash).
	Passages uint64 `json:"passages"`
	// Crashes counts failures (injected or simulated).
	Crashes uint64 `json:"crashes"`
	// CrashedAttempts counts attempts that ended in a crash (one crash can
	// close at most one open attempt, so CrashedAttempts ≤ Crashes).
	CrashedAttempts uint64 `json:"crashed_attempts"`
	// Aborted counts attempts that ended in a back-out: the waiter was
	// cancelled, abandoned its queue position crash-safely and left.
	Aborted uint64 `json:"aborted"`
	// Recoveries counts passages that began with a prior crash pending,
	// i.e. runs of Recover that had cleanup to consider.
	Recoveries uint64 `json:"recoveries"`
	// FastPath counts completed passages that stayed at BA-Lock level 1.
	FastPath uint64 `json:"fast_path"`
	// SlowPath counts completed passages that escalated past level 1.
	SlowPath uint64 `json:"slow_path"`
	// SplitterTries counts splitter acquisition attempts (":try" labels).
	SplitterTries uint64 `json:"splitter_tries"`
	// FilterFAS counts WR-Lock filter acquisitions — executions of the
	// sensitive fetch-and-store (":fas" labels).
	FilterFAS uint64 `json:"filter_fas"`
	// RMRs is the total remote memory references under the CC model,
	// including traffic of crashed passage fragments.
	RMRs uint64 `json:"rmrs"`
	// Ops is the total shared-memory instruction count.
	Ops uint64 `json:"ops"`
	// LevelHist[i] counts completed passages whose deepest BA-Lock level
	// was i+1 (index 0 = level 1, the fast path).
	LevelHist []uint64 `json:"level_hist"`
	// RMRHist is the per-passage RMR cost distribution.
	RMRHist Hist `json:"rmr_hist"`
	// AbandonedHist[i] counts aborted attempts whose deepest BA-Lock level
	// was i+1 when the abort was delivered — the abandoned-level
	// distribution (how deep cancelled waiters had escalated).
	AbandonedHist []uint64 `json:"abandoned_hist,omitempty"`
	// AbortRMRHist is the RMR cost distribution of aborted attempts,
	// including the back-out protocol's own instructions. With no recent
	// failures the back-out touches only the fast-path components, so this
	// distribution staying O(1) is the abortable analogue of the paper's
	// adaptivity claim.
	AbortRMRHist Hist `json:"abort_rmr_hist"`
}

// Hist is a histogram of a per-passage quantity. Counts[i] for
// i < len(Counts)-1 holds the number of passages whose value was exactly
// i; the final bucket collects every passage at or above len(Counts)-1.
type Hist struct {
	Counts []uint64 `json:"counts"`
}

// Total returns the number of samples in the histogram.
func (h Hist) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile returns the smallest bucket value v such that at least
// q·Total() samples are ≤ v, i.e. the q-quantile of the distribution
// (q in [0,1]). With no samples it returns 0. If the quantile lands in
// the overflow bucket the returned value is len(Counts)-1, a lower
// bound.
func (h Hist) Quantile(q float64) int {
	total := h.Total()
	if total == 0 {
		return 0
	}
	need := uint64(q * float64(total))
	if need < 1 {
		need = 1
	}
	if need > total {
		need = total
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			return i
		}
	}
	return len(h.Counts) - 1
}

// Mean returns the sample mean, counting overflow-bucket samples at the
// bucket's lower bound (so it is a lower bound on the true mean).
func (h Hist) Mean() float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var sum uint64
	for i, c := range h.Counts {
		sum += uint64(i) * c
	}
	return float64(sum) / float64(total)
}

// Sum returns the sum of all samples, counting overflow-bucket samples
// at the bucket's lower bound (so it is a lower bound on the true sum).
// Exporters use it for the Prometheus histogram _sum series.
func (h Hist) Sum() uint64 {
	var sum uint64
	for i, c := range h.Counts {
		sum += uint64(i) * c
	}
	return sum
}

// add merges o into h, growing h as needed; o's overflow bucket lands in
// h's overflow bucket.
func (h *Hist) add(o Hist) {
	if len(o.Counts) == 0 {
		return
	}
	if n := len(h.Counts); n < len(o.Counts) {
		grown := make([]uint64, len(o.Counts))
		copy(grown, h.Counts)
		if n > 0 {
			// h's old overflow bucket must stay overflow after growing.
			grown[len(grown)-1] += grown[n-1]
			grown[n-1] = 0
		}
		h.Counts = grown
	}
	last := len(h.Counts) - 1
	for i, c := range o.Counts {
		if i == len(o.Counts)-1 && i < last {
			// o's overflow must stay overflow.
			h.Counts[last] += c
		} else {
			h.Counts[i] += c
		}
	}
}

// MaxLevel returns the deepest BA-Lock level any completed passage
// reached (1-based), or 0 if no passage completed.
func (s Snapshot) MaxLevel() int {
	for i := len(s.LevelHist) - 1; i >= 0; i-- {
		if s.LevelHist[i] != 0 {
			return i + 1
		}
	}
	return 0
}

// RMRsPerPassage returns the mean RMR cost over completed passages
// (from the histogram, so crashed fragments are excluded).
func (s Snapshot) RMRsPerPassage() float64 { return s.RMRHist.Mean() }

// Merge returns the element-wise sum of s and o, merging histograms.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	m := s
	m.Attempts += o.Attempts
	m.Passages += o.Passages
	m.Crashes += o.Crashes
	m.CrashedAttempts += o.CrashedAttempts
	m.Aborted += o.Aborted
	m.Recoveries += o.Recoveries
	m.FastPath += o.FastPath
	m.SlowPath += o.SlowPath
	m.SplitterTries += o.SplitterTries
	m.FilterFAS += o.FilterFAS
	m.RMRs += o.RMRs
	m.Ops += o.Ops
	m.LevelHist = append([]uint64(nil), s.LevelHist...)
	for len(m.LevelHist) < len(o.LevelHist) {
		m.LevelHist = append(m.LevelHist, 0)
	}
	for i, v := range o.LevelHist {
		m.LevelHist[i] += v
	}
	m.AbandonedHist = append([]uint64(nil), s.AbandonedHist...)
	for len(m.AbandonedHist) < len(o.AbandonedHist) {
		m.AbandonedHist = append(m.AbandonedHist, 0)
	}
	for i, v := range o.AbandonedHist {
		m.AbandonedHist[i] += v
	}
	m.RMRHist = Hist{Counts: append([]uint64(nil), s.RMRHist.Counts...)}
	m.RMRHist.add(o.RMRHist)
	m.AbortRMRHist = Hist{Counts: append([]uint64(nil), s.AbortRMRHist.Counts...)}
	m.AbortRMRHist.add(o.AbortRMRHist)
	return m
}

// String renders a one-paragraph human summary, the form printed by
// rmesweep -random and cmd/rmesim.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "passages=%d crashes=%d recoveries=%d fast=%d slow=%d",
		s.Passages, s.Crashes, s.Recoveries, s.FastPath, s.SlowPath)
	if s.Aborted > 0 {
		fmt.Fprintf(&b, " aborted=%d abort_rmr{med=%d p99=%d}",
			s.Aborted, s.AbortRMRHist.Quantile(0.5), s.AbortRMRHist.Quantile(0.99))
	}
	if s.Passages > 0 {
		fmt.Fprintf(&b, " rmr/passage{med=%d p99=%d mean=%.1f}",
			s.RMRHist.Quantile(0.5), s.RMRHist.Quantile(0.99), s.RMRHist.Mean())
		fmt.Fprintf(&b, " max_level=%d", s.MaxLevel())
	}
	fmt.Fprintf(&b, " rmrs=%d ops=%d", s.RMRs, s.Ops)
	if s.SplitterTries > 0 || s.FilterFAS > 0 {
		fmt.Fprintf(&b, " splitter_tries=%d filter_fas=%d", s.SplitterTries, s.FilterFAS)
	}
	return b.String()
}
