package bench

import (
	"strings"
	"testing"
)

// TestMapCostSweepShape checks the sweep structure on tiny real runs:
// every native lock runs all three key-popularity modes, in order.
func TestMapCostSweepShape(t *testing.T) {
	rep, err := MapCost(ReportOpts{Workers: 4, Passages: 80, ChurnKeys: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "rme-bench-map/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	// 2 locks x 3 modes.
	if len(rep.Results) != 6 {
		t.Fatalf("%d results, want 6", len(rep.Results))
	}
	for i, r := range rep.Results {
		if want := []string{"hot", "zipf", "churn"}[i%3]; r.Mode != want || r.Workers != 4 {
			t.Fatalf("row %d ran mode %q workers %d, want %q workers 4", i, r.Mode, r.Workers, want)
		}
	}
	if rep.Results[0].Lock != "ba-log" || rep.Results[3].Lock != "ba-sublog" {
		t.Fatalf("lock labels wrong: %q %q", rep.Results[0].Lock, rep.Results[3].Lock)
	}
	if z := rep.Results[1]; z.Keys != mapZipfKeys || z.ZipfS != mapZipfS {
		t.Fatalf("zipf row keys=%d s=%g", z.Keys, z.ZipfS)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Table().String(), "Keyed lock manager") {
		t.Fatal("table missing title")
	}
}

// TestMapRunReal runs tiny real measurements end to end: the hot mode
// must satisfy the attempts identity on a single key, and the churn
// mode must recycle regions while keeping the footprint bounded.
func TestMapRunReal(t *testing.T) {
	if testing.Short() {
		t.Skip("real map measurement; skipped with -short")
	}
	o := ReportOpts{Workers: 4, Passages: 200, ChurnKeys: 120}
	o.fill()
	hot, err := mapRow(nil, "hot", o)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Attempts != hot.Passages || hot.Passages != 200 {
		t.Fatalf("hot: attempts=%d passages=%d", hot.Attempts, hot.Passages)
	}
	if hot.DistinctKeys != 1 || hot.RMRMedian < 1 {
		t.Fatalf("hot: distinct=%d median=%d", hot.DistinctKeys, hot.RMRMedian)
	}

	churn, err := mapRow(nil, "churn", o)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Recycled == 0 || churn.Evictions == 0 {
		t.Fatalf("churn never recycled: %+v", churn)
	}
	if churn.DistinctKeys != o.ChurnKeys {
		t.Fatalf("churn touched %d keys, want %d", churn.DistinctKeys, o.ChurnKeys)
	}
	if churn.FootprintWords >= churn.DistinctKeys*churn.SlotWords {
		t.Fatalf("churn footprint %d words unbounded (distinct keys would need %d)",
			churn.FootprintWords, churn.DistinctKeys*churn.SlotWords)
	}

	zipf, err := mapRow(nil, "zipf", o)
	if err != nil {
		t.Fatal(err)
	}
	if zipf.Passages != 200 || zipf.DistinctKeys < 1 || zipf.DistinctKeys > mapZipfKeys {
		t.Fatalf("zipf: %+v", zipf)
	}
}
