package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// assertRowArity is the table-integrity invariant: every row has exactly
// one cell per column. A short or long row silently shears the whole
// table sideways in text, CSV and JSON output.
func assertRowArity(t *testing.T, name string, tb *Table) {
	t.Helper()
	if len(tb.Columns) == 0 {
		t.Fatalf("%s: no columns", name)
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Errorf("%s row %d: %d cells for %d columns: %v", name, i, len(row), len(tb.Columns), row)
		}
	}
}

// allExperiments builds every table-producing experiment at tiny scale.
func allExperiments(o Opts) map[string]*Table {
	m := map[string]*Table{
		"adaptivity": Adaptivity(o),
		"escalation": Escalation(o),
		"batch":      Batch(o),
		"components": Components(),
		"reclaim":    Reclaim(o),
		"respons":    Responsiveness(o),
		"scale":      Scale(Opts{Requests: o.Requests, Seeds: o.Seeds}),
		"ablation":   Ablation(o),
		"table2":     Table2(Opts{Requests: o.Requests, Seeds: o.Seeds}),
	}
	for i, tb := range Table1(o) {
		m[fmt.Sprintf("table1/%d", i)] = tb
	}
	return m
}

// TestTableRowArity: on the happy path, every experiment emits full rows.
func TestTableRowArity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for name, tb := range allExperiments(tinyOpts()) {
		assertRowArity(t, name, tb)
	}
}

// TestTableRowArityOnRunFailure is the regression test for the ERR-arity
// bug: with every simulator run failing, error rows must still carry
// exactly one cell per column (ba-log spans two columns in the adaptivity
// table and used to get a single ERR cell, shearing the row).
func TestTableRowArityOnRunFailure(t *testing.T) {
	saved := runSeeds
	runSeeds = func(pt Point, seeds []int64) (Metrics, error) {
		return Metrics{}, errors.New("injected simulator failure")
	}
	defer func() { runSeeds = saved }()

	o := tinyOpts()
	for name, tb := range map[string]*Table{
		"adaptivity": Adaptivity(o),
		"escalation": Escalation(o),
		"components": Components(),
		"respons":    Responsiveness(o),
		"scale":      Scale(Opts{Requests: o.Requests, Seeds: o.Seeds}),
	} {
		assertRowArity(t, name, tb)
	}
}

func TestTableJSON(t *testing.T) {
	tb := &Table{Title: "t", Columns: []string{"a", "b"}, Notes: []string{"n"}}
	tb.Add(1, 2.5)
	raw, err := tb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string     `json:"schema"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Table.JSON emitted invalid JSON: %v\n%s", err, raw)
	}
	if doc.Schema != "rme-bench-table/v1" || len(doc.Rows) != 1 || doc.Rows[0][1] != "2.5" {
		t.Fatalf("unexpected document: %+v", doc)
	}
}
