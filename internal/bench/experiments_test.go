package bench

import (
	"strings"
	"testing"
)

// tinyOpts keeps every experiment fast enough for the unit-test suite.
func tinyOpts() Opts {
	return Opts{N: 8, Requests: 2, Failures: 4, Seeds: []int64{1}}
}

func assertClean(t *testing.T, name, s string) {
	t.Helper()
	if s == "" {
		t.Fatalf("%s: empty output", name)
	}
	for _, bad := range []string{"VIOLATION", "ERROR", "ERR\n", "ERR "} {
		if strings.Contains(s, bad) {
			t.Fatalf("%s output contains %q:\n%s", name, bad, s)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	tables := Table1(tinyOpts())
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2 (CC and DSM)", len(tables))
	}
	for _, tb := range tables {
		assertClean(t, "table1", tb.String())
		if len(tb.Rows) != 8*3 { // 8 locks × 3 scenarios
			t.Fatalf("%d rows, want 24", len(tb.Rows))
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	tb := Table2(Opts{Requests: 2, Seeds: []int64{1}})
	assertClean(t, "table2", tb.String())
	// The framework locks must classify PM1 = yes, the bases = no.
	for _, row := range tb.Rows {
		switch row[0] {
		case "sa", "ba-log", "ba-sublog", "wr":
			if row[3] != "yes" {
				t.Errorf("%s: PM1 = %q, want yes", row[0], row[3])
			}
		case "tournament", "bakery":
			if row[3] != "no" {
				t.Errorf("%s: PM1 = %q, want no", row[0], row[3])
			}
		}
		if row[6] != "yes" {
			t.Errorf("%s: PM3 = %q, want yes (all implemented locks are bounded)", row[0], row[6])
		}
	}
}

func TestFigure3Smoke(t *testing.T) {
	out := Figure3(tinyOpts())
	assertClean(t, "figure3", out)
	if !strings.Contains(out, "level 1") || !strings.Contains(out, "deepest level") {
		t.Fatalf("figure3 output incomplete:\n%s", out)
	}
}

func TestAdaptivitySmoke(t *testing.T) {
	tb := Adaptivity(tinyOpts())
	assertClean(t, "adaptivity", tb.String())
	if len(tb.Rows) != 8 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestEscalationSmoke(t *testing.T) {
	tb := Escalation(tinyOpts())
	assertClean(t, "escalation", tb.String())
	for _, row := range tb.Rows {
		if row[3] == "NO" {
			t.Fatalf("Theorem 5.17 bound violated: %v", row)
		}
	}
}

func TestBatchSmoke(t *testing.T) {
	assertClean(t, "batch", Batch(tinyOpts()).String())
}

func TestAblationSmoke(t *testing.T) {
	tb := Ablation(tinyOpts())
	assertClean(t, "ablation", tb.String())
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
}

func TestReclaimSmoke(t *testing.T) {
	tb := Reclaim(tinyOpts())
	assertClean(t, "reclaim", tb.String())
	// The pool column must be constant across workload growth.
	if len(tb.Rows) < 2 || tb.Rows[0][2] != tb.Rows[len(tb.Rows)-1][2] {
		t.Fatalf("reclamation footprint not constant: %v", tb.Rows)
	}
}

func TestScaleSmoke(t *testing.T) {
	tb := Scale(Opts{Requests: 2, Seeds: []int64{1}})
	assertClean(t, "scale", tb.String())
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}
