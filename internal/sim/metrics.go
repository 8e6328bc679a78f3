package sim

import "rme/internal/metrics"

// hasOps reports whether the history holds the instruction stream
// (Config.RecordOps).
func (r *Result) hasOps() bool {
	for _, ev := range r.Events {
		if ev.Kind == EvOp {
			return true
		}
	}
	return false
}

// DeepestLevels returns, per process, the deepest BA-Lock level the
// process reached anywhere in the run, reconstructed from slow-path
// commitment labels (every process that exists starts at level 1). Like
// the label-derived MetricsSnapshot fields it needs the instruction
// stream: without Config.RecordOps it returns nil.
func (r *Result) DeepestLevels() []int {
	if !r.hasOps() || r.Config.N == 0 {
		return nil
	}
	deep := make([]int, r.Config.N)
	for i := range deep {
		deep[i] = 1
	}
	for _, ev := range r.Events {
		if ev.Kind != EvOp || ev.PID < 0 || ev.PID >= len(deep) {
			continue
		}
		if lvl := metrics.SlowLevel(ev.Op.Label); lvl > deep[ev.PID] {
			deep[ev.PID] = lvl
		}
	}
	return deep
}

// MetricsSnapshot exports the run's logical-step statistics through the
// same snapshot type the native backend's metrics layer produces, so
// simulated and measured numbers are directly comparable.
//
// Passage counts, crash and recovery counts, the RMR totals and the
// RMR-per-passage histogram come from the per-passage statistics and the
// lifecycle events, and are always populated. The label-derived fields —
// level distribution, fast/slow split, splitter tries, filter
// acquisitions — require the instruction stream and are only populated
// when the run was configured with Config.RecordOps; otherwise they are
// zero and LevelHist is empty.
//
// levels sets the level-histogram depth (the lock's BA-Lock level count
// including the base; use 1 for single-level locks). Values < 1 are
// treated as 1.
func (r *Result) MetricsSnapshot(levels int) metrics.Snapshot {
	if levels < 1 {
		levels = 1
	}
	if levels > metrics.MaxLevels {
		levels = metrics.MaxLevels
	}
	s := metrics.Snapshot{
		Crashes:      uint64(len(r.Crashes)),
		RMRHist:      metrics.Hist{Counts: make([]uint64, metrics.RMRBuckets)},
		AbortRMRHist: metrics.Hist{Counts: make([]uint64, metrics.RMRBuckets)},
	}

	for _, ps := range r.Passages {
		s.Attempts++
		s.Ops += uint64(ps.Ops)
		s.RMRs += uint64(ps.RMRs)
		if ps.Crashed {
			s.CrashedAttempts++
			continue
		}
		if ps.Aborted {
			s.Aborted++
			b := ps.RMRs
			if b >= metrics.RMRBuckets-1 {
				b = metrics.RMRBuckets - 1
			}
			s.AbortRMRHist.Counts[b]++
			continue
		}
		s.Passages++
		b := ps.RMRs
		if b >= metrics.RMRBuckets-1 {
			b = metrics.RMRBuckets - 1
		}
		s.RMRHist.Counts[b]++
	}

	// A crash leaves its process a recovery to make, and the process's
	// next passage start makes it, as the native recorder counts: two
	// crashes in one request are two recoveries, an abort none.
	pending := make([]bool, r.Config.N)
	for _, ev := range r.Events {
		switch ev.Kind {
		case EvCrash:
			pending[ev.PID] = true
		case EvPassageStart:
			if pending[ev.PID] {
				pending[ev.PID] = false
				s.Recoveries++
			}
		}
	}

	// Reconstruct per-passage levels from the instruction labels, exactly
	// as the native recorder observes them, when the history has them.
	if !r.hasOps() {
		return s
	}

	s.LevelHist = make([]uint64, levels)
	level := make([]int, r.Config.N)
	for _, ev := range r.Events {
		switch ev.Kind {
		case EvPassageStart:
			level[ev.PID] = 1
		case EvOp:
			l := ev.Op.Label
			switch {
			case metrics.IsFilterFAS(l):
				s.FilterFAS++
			case metrics.IsSplitterTry(l):
				s.SplitterTries++
			default:
				if lvl := metrics.SlowLevel(l); lvl > level[ev.PID] {
					level[ev.PID] = lvl
				}
			}
		case EvPassageEnd:
			lvl := level[ev.PID]
			if lvl < 1 {
				lvl = 1
			}
			for len(s.LevelHist) < lvl {
				s.LevelHist = append(s.LevelHist, 0)
			}
			s.LevelHist[lvl-1]++
			if lvl == 1 {
				s.FastPath++
			} else {
				s.SlowPath++
			}
		case EvAborted:
			lvl := level[ev.PID]
			if lvl < 1 {
				lvl = 1
			}
			for len(s.AbandonedHist) < lvl {
				s.AbandonedHist = append(s.AbandonedHist, 0)
			}
			s.AbandonedHist[lvl-1]++
		}
	}
	return s
}
