package bench

import (
	"fmt"
	"math/rand"
	"strconv"

	"rme"
)

// The map experiment measures the keyed lock manager (rme.Map) under
// three key-popularity regimes:
//
//   - hot: every worker hammers one key — pure contention on a single
//     sub-arena. The hot-key median is the regression anchor: per-key
//     passages run the same BA-Lock as a standalone Mutex, so it must
//     stay within 2x of the metrics experiment's F=0 median (Check
//     asserts this; the slack absorbs shard-map scheduling noise, not
//     algorithmic regressions).
//   - zipf: workers draw keys from a Zipf(1.1) distribution over a
//     64-key space — the skewed-popularity case sharded maps exist for.
//   - churn: every passage touches a brand-new key through a map
//     deliberately configured with one shard and few segment slots, so
//     key lifecycle (evict, recycle, re-instantiate) dominates. The
//     footprint and recycled counters prove reclamation bounds space.
//
// Results serialize as BENCH_map.json (rme-bench-map/v1).

// The zipf mode's key space and skew.
const (
	mapZipfKeys = 64
	mapZipfS    = 1.1
)

// MapCost runs the three key-popularity modes on every native lock at
// o.Workers and reports per-passage RMR distributions plus key-lifecycle
// accounting.
func MapCost(o ReportOpts) (*Report, error) {
	o.fill()
	rep := newReport("map", o.Passages)
	for _, lk := range nativeLocks {
		for _, mode := range []string{"hot", "zipf", "churn"} {
			row, err := mapRow(lk.opts, mode, o)
			if err != nil {
				return nil, fmt.Errorf("bench: map %s mode=%s: %w", lk.name, mode, err)
			}
			row.Lock = lk.name
			rep.Results = append(rep.Results, row)
		}
	}
	return rep, nil
}

// mapRow completes the mode's passages across the workers and returns
// the row: merged metrics plus the map's lifecycle stats.
func mapRow(lockOpts []rme.Option, mode string, o ReportOpts) (Row, error) {
	var extra []rme.Option
	keys, zipfS, passages := 1, 0.0, o.Passages
	switch mode {
	case "zipf":
		keys, zipfS = mapZipfKeys, mapZipfS
	case "churn":
		// One shard, few slots: every new key beyond the slot budget
		// must evict and recycle an idle region.
		extra = append(extra, rme.WithShards(1), rme.WithSegmentSlots(8))
		keys, passages = o.ChurnKeys, o.ChurnKeys
	}
	m, err := rme.NewMap(o.Workers, withMetrics(lockOpts, extra...)...)
	if err != nil {
		return Row{}, err
	}
	zipfs := make([]*rand.Zipf, o.Workers)
	for pid := range zipfs {
		rng := rand.New(rand.NewSource(int64(pid)*1099511628211 + 7))
		zipfs[pid] = rand.NewZipf(rng, mapZipfS, 1, mapZipfKeys-1)
	}
	drive(o.Workers, passages, func(pid, i int) {
		key := "hot"
		switch mode {
		case "zipf":
			key = "key-" + strconv.FormatUint(zipfs[pid].Uint64(), 10)
		case "churn":
			// Globally unique: lifecycle pressure on every passage.
			key = "churn-" + strconv.Itoa(pid) + "-" + strconv.Itoa(i)
		}
		m.Lock(pid, key)
		m.Unlock(pid, key)
	})
	s, _ := m.MetricsSnapshot()
	st := m.Stats()
	row := condense(s)
	row.Mode, row.Workers, row.Keys, row.ZipfS = mode, o.Workers, keys, zipfS
	row.DistinctKeys = int(st.Instantiated)
	row.SlotWords, row.FootprintWords, row.Segments = st.SlotWords, st.FootprintWords, st.Segments
	row.Instantiated, row.Recycled, row.Evictions = st.Instantiated, st.Recycled, st.Evictions
	return row, nil
}
