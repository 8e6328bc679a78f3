package main

import (
	"strings"
	"testing"
	"time"

	"rme"
)

// tracedRun drives the traced core-direct build of w, with the given
// BA-Lock depth, for d and returns its ledger. Every attempt is recorded
// until the span buffers fill.
func tracedRun(t *testing.T, w workload, plan *faultPlan, levels int, d time.Duration) (*coreSet, *ledger) {
	t.Helper()
	c := newCoreSet(w, plan, levels, true, 1<<16)
	for _, tr := range c.tr {
		tr.budget = 1 << 30
	}
	if _, err := runPhase(c, drawRanks(w, 7), newChecker(w), plan, windows(0, d, 1)); err != nil {
		t.Fatal(err)
	}
	l := &ledger{}
	for _, tr := range c.tr {
		l.addSpans(tr.buf)
	}
	return c, l
}

// The core-direct build must be the product's recipe: the same arena
// footprint as rme.New(8), and with one worker exactly the RMRs per
// passage that rme.New(8, WithMetrics()) counts. A drift between the
// traced build and the product fails here.
func TestRecipeEquivalence(t *testing.T) {
	solo, _ := workloadByName("mutex-solo")
	m, err := rme.New(procs)
	if err != nil {
		t.Fatal(err)
	}
	c, l := tracedRun(t, solo, nil, productLevels, 100*time.Millisecond)
	if c.footprint() != m.Footprint() {
		t.Errorf("core-direct footprint %d words, rme.New(8) %d", c.footprint(), m.Footprint())
	}
	traced, err := sparseOf(l.passRMR).quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}

	p, err := newProduct(solo, 7, 0, rme.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.counters()
	if _, err := runPhase(p, drawRanks(solo, 7), newChecker(solo), nil, count(5000)); err != nil {
		t.Fatal(err)
	}
	product, err := p.counters().sub(c0).hist.quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if traced != product {
		t.Errorf("RMRs per passage: core-direct median %v, rme.New(8, WithMetrics()) median %v", traced, product)
	}
}

// On every recorded attempt the segments' self RMRs sum exactly to the
// attempt's RMRs and their self ns tile its duration. The faults pass,
// with a crash seed dense enough for a short test, must crash, abort and
// escalate to level 2. Two processes cannot go deeper — the level-1
// splitter's owner is one of them, so at most one is slow there — which
// is why a one-level build, whose slow path is the grlock base, checks
// the ledger through the base lock.
func TestLedgerIdentity(t *testing.T) {
	solo, _ := workloadByName("mutex-solo")
	_, l := tracedRun(t, solo, nil, productLevels, 100*time.Millisecond)
	if len(l.identity) > 0 || l.passages < 100 {
		t.Fatalf("solo: %d passages, identity failures %v", l.passages, l.identity)
	}

	faults, _ := workloadByName("mutex-faults")
	plan := newFaultPlan(7, 1)
	plan.rate = 0.05
	c, l := tracedRun(t, faults, plan, productLevels, 400*time.Millisecond)
	if len(l.identity) > 0 {
		t.Fatalf("faults: identity failures %v", l.identity)
	}
	if l.crashed == 0 || l.aborted == 0 || l.maxLevel != 2 {
		t.Errorf("faults: %d crashed and %d aborted attempts, deepest level %d; want crashes, aborts and level 2",
			l.crashed, l.aborted, l.maxLevel)
	}

	plan = newFaultPlan(7, 2)
	plan.rate = 0.05
	_, base := tracedRun(t, faults, plan, 1, 400*time.Millisecond)
	if len(base.identity) > 0 || base.escalated == 0 || len(base.ns[segGrExit]) == 0 {
		t.Errorf("one-level faults: %d passages through grlock, identity failures %v", base.escalated, base.identity)
	}

	// The identity is a real check: a segment that does not start where
	// its predecessor ended breaks it.
	spans := c.tr[0].buf
	end := 1
	for end < len(spans) && spans[end].parent != -1 {
		end++
	}
	broken := append([]span(nil), spans[:end]...)
	broken[2].r0--
	broken[2].t0++
	var b ledger
	b.addAttempt(broken)
	if len(b.identity) != 2 || !strings.Contains(b.identity[0], "RMRs") || !strings.Contains(b.identity[1], "ns") {
		t.Errorf("a gap between segments gave %v, want an RMR and an ns failure", b.identity)
	}
}
