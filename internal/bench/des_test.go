package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"rme/internal/des"
	"rme/internal/workload"
)

// TestDESTrafficStructure pins the trajectory through a stubbed runner:
// per lock one anchor (n=1, lowest rate), every ramp rate, both crash
// regimes, one zipf, one abort and one straggler run, in that order.
func TestDESTrafficStructure(t *testing.T) {
	var calls []des.Config
	stub := func(cfg des.Config) (*des.Result, error) {
		calls = append(calls, cfg)
		return &des.Result{Passages: 1, VirtualNs: 1, MaxKeyCSOverlap: 1}, nil
	}

	rates := []float64{100, 200, 300}
	rep, err := desTraffic(ReportOpts{Workers: 4, DESRequests: 5, DESRates: rates, DESKeys: 8, DESCrashes: 6}, stub)
	if err != nil {
		t.Fatal(err)
	}
	perLock := 1 + len(rates) + 2 + 1 + 1 + 1
	if len(calls) != 2*perLock {
		t.Fatalf("%d runner calls, want %d", len(calls), 2*perLock)
	}
	if len(rep.Results) != len(calls) {
		t.Fatalf("%d rows for %d calls", len(rep.Results), len(calls))
	}

	for lock := 0; lock < 2; lock++ {
		seq := calls[lock*perLock : (lock+1)*perLock]
		rows := rep.Results[lock*perLock : (lock+1)*perLock]
		want := workload.Shipped()[lock]
		for i, cfg := range seq {
			if cfg.Lock != want || rows[i].Lock != want {
				t.Fatalf("call %d ran %q into row %q, want %q", i, cfg.Lock, rows[i].Lock, want)
			}
		}
		if seq[0].N != 1 || seq[0].Arrival.Rate != rates[0] || rows[0].Regime != "anchor" {
			t.Fatalf("anchor misconfigured: %+v / %+v", seq[0], rows[0])
		}
		for i, rate := range rates {
			if seq[1+i].Arrival.Rate != rate || rows[1+i].Regime != "ramp" || seq[1+i].N != 4 {
				t.Fatalf("ramp %d misconfigured: %+v", i, seq[1+i])
			}
		}
		uni, storm := seq[1+len(rates)], seq[2+len(rates)]
		if uni.Crashes.Kind != des.Uniform || storm.Crashes.Kind != des.Storm {
			t.Fatalf("crash regimes misordered: %+v %+v", uni.Crashes, storm.Crashes)
		}
		if uni.Crashes.Budget != 6 || storm.Crashes.Budget != 6 {
			t.Fatal("crash budget not forwarded")
		}
		zipf := seq[3+len(rates)]
		if zipf.Keys != 8 || zipf.Arrival.Kind != des.Bursty {
			t.Fatalf("zipf regime misconfigured: %+v", zipf)
		}
		abort := seq[4+len(rates)]
		if abort.Aborts.DeadlineNs != desAbortDeadlineNs || abort.Arrival.Rate != rates[len(rates)-1] ||
			rows[4+len(rates)].Regime != "abort" {
			t.Fatalf("abort regime misconfigured: %+v", abort)
		}
		strag := seq[5+len(rates)]
		if strag.Stragglers.Count != 1 || strag.Stragglers.Factor != 8 {
			t.Fatalf("straggler regime misconfigured: %+v", strag)
		}
	}
}

// TestDESTrafficReal runs a miniature real trajectory end to end and
// checks the report invariants the des gates assert.
func TestDESTrafficReal(t *testing.T) {
	rep, err := DESTraffic(ReportOpts{Workers: 3, DESRequests: 8, DESRates: []float64{2_000, 500_000}, DESKeys: 4, DESCrashes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "rme-bench-des/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	for _, res := range rep.Results {
		if !(res.P50Ns <= res.P90Ns && res.P90Ns <= res.P99Ns) {
			t.Fatalf("percentiles not monotone: %+v", res)
		}
		if res.Passages == 0 || res.RMRMedian == 0 || res.Throughput == 0 {
			t.Fatalf("degenerate row: %+v", res)
		}
		if res.MaxKeyOverlap != 1 {
			t.Fatalf("per-key CS overlap %d: %+v", res.MaxKeyOverlap, res)
		}
	}

	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(blob, &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Results) != len(rep.Results) {
		t.Fatal("JSON round-trip dropped rows")
	}

	table := rep.Table().String()
	for _, want := range []string{"anchor", "ramp", "crash-storm", "zipf", "straggler", "ba-sublog"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestDESTrafficDeterministic pins the checked-in-report property: two
// runs of the same options produce identical trace hashes.
func TestDESTrafficDeterministic(t *testing.T) {
	opts := ReportOpts{Workers: 2, DESRequests: 5, DESRates: []float64{10_000}, DESKeys: 4, DESCrashes: 2}
	a, err := DESTraffic(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DESTraffic(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].TraceHash != b.Results[i].TraceHash {
			t.Fatalf("row %d hash diverged: %s vs %s", i, a.Results[i].TraceHash, b.Results[i].TraceHash)
		}
	}
}
