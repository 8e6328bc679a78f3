package main

import (
	"fmt"
	"time"

	"rme/internal/core"
	"rme/internal/memory"
)

// seg names a span of the traced pass. Top-level segments tile a passage
// attempt: each starts at the stamp that ends the previous one. Child
// segments are the timed calls into the base lock and the reclamation
// pool, nested in whichever segment made them.
type seg uint8

const (
	segPassage  seg = iota // the attempt itself (root)
	segRecover             // Recover and Enter dispatch up to level 1's filter
	segFilter              // WR-Lock filter, from its phase stamp to the splitter's
	segSplitter            // splitter try and path commitment
	segSlow                // slow path: from the core phase stamp to the next stamp
	segArb                 // dual-port yalock arbitrator
	segCS                  // the workload's critical section
	segExit                // BALock.Exit
	segAbort               // BALock.Abort after a deadline abort
	segNewNode             // reclaim.Pool.NewNode
	segRetire              // reclaim.Pool.Retire
	segGrEnter             // grlock.Tournament.Enter
	segGrExit              // grlock.Tournament.Exit
	segGrAbort             // grlock.Tournament.Abort
	nSeg
)

var segNames = [nSeg]string{
	"passage", "core.recover", "core.filter", "core.splitter", "core.slow", "yalock.enter",
	"cs", "core.exit", "core.abort", "reclaim.new_node", "reclaim.retire",
	"grlock.enter", "grlock.exit", "grlock.abort",
}

func (s seg) String() string { return segNames[s] }

// span is one traced interval with the counters read at both ends.
type span struct {
	t0, t1  int64  // ns since the tracer's base
	r0, r1  uint32 // CC-model RMRs
	o0, o1  uint32 // shared-memory instructions
	z0, z1  uint32 // Pause calls
	parent  int32  // index of the enclosing span; -1 for the root
	pass    uint32 // attempt id, per worker
	name    seg
	level   uint8 // BA-Lock level of the segment (0: none)
	out     outcome
	recover bool // root: the attempt follows a crash of this process
}

// maxSpans bounds the spans of one attempt (an attempt escalating
// through all three levels records about 25).
const maxSpans = 64

// stamp is one reading of the clock and the process's counters.
type stamp struct {
	t       int64
	r, o, z uint32
}

// tracer records one worker's spans. Spans go to a preallocated buffer
// until it is full or the window's budget is spent; later attempts are
// stamped the same way but into a scratch buffer, so every traced
// attempt costs the same. All methods are no-ops on a nil tracer, which
// is how the untraced core-direct build shares the traced code path.
type tracer struct {
	port   *memory.CountingPort
	pause  *pauseState
	base   time.Time
	buf    []span
	spare  []span
	spans  *[]span
	budget int // attempts still to record in this window
	every  int // record one measured attempt in every this many
	seen   int
	pass   uint32
	root   int32
	seg    int32
	child  int32
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), buf: make([]span, 0, capacity), spare: make([]span, 0, maxSpans), every: 1}
}

func (t *tracer) now() stamp {
	c := t.port.Counts()
	return stamp{t: int64(time.Since(t.base)), r: uint32(c.RMRs), o: uint32(c.Ops), z: t.pause.pauses}
}

// open appends a span and returns its index in the buffer. parent is a
// buffer index too (-1 for a root) but is stored relative to the root,
// so an attempt's spans can be read on their own.
func (t *tracer) open(name seg, level uint8, parent int32, s stamp) int32 {
	sp := t.spans
	if len(*sp) == cap(*sp) {
		panic(fmt.Sprintf("rmeperf: attempt %d needs more than %d spans", t.pass, maxSpans))
	}
	if parent >= 0 {
		parent -= t.root
	}
	*sp = append(*sp, span{t0: s.t, t1: -1, r0: s.r, o0: s.o, z0: s.z, parent: parent, pass: t.pass, name: name, level: level})
	return int32(len(*sp) - 1)
}

func (t *tracer) close(i int32, s stamp) {
	sp := &(*t.spans)[i]
	sp.t1, sp.r1, sp.o1, sp.z1 = s.t, s.r, s.o, s.z
}

// begin opens an attempt's root span and its first segment at one stamp.
// Only attempts in a window's measured part are candidates for the
// buffer; of those, one in every t.every is kept, spreading the window's
// budget over the whole window.
func (t *tracer) begin(recovering, measuring bool) {
	if t == nil {
		return
	}
	if measuring {
		t.seen++
	}
	if measuring && t.budget > 0 && t.seen%t.every == 0 && cap(t.buf)-len(t.buf) >= maxSpans {
		t.budget--
		t.spans = &t.buf
	} else {
		t.spare = t.spare[:0]
		t.spans = &t.spare
	}
	t.pass++
	s := t.now()
	t.root = t.open(segPassage, 0, -1, s)
	(*t.spans)[t.root].recover = recovering
	t.seg = t.open(segRecover, 0, t.root, s)
	t.child = -1
}

// next closes the open segment and opens the next one at one stamp.
func (t *tracer) next(name seg, level int) {
	if t == nil {
		return
	}
	s := t.now()
	t.close(t.seg, s)
	t.seg = t.open(name, uint8(level), t.root, s)
}

// phase is the BALock phase hook. The fast-path outcome stays in the
// splitter segment: it is the splitter's decision, and no instruction
// separates it from the arbitrator.
func (t *tracer) phase(ph core.PhaseKind, level int) {
	switch ph {
	case core.PhaseFilter:
		t.next(segFilter, level)
	case core.PhaseSplitter:
		t.next(segSplitter, level)
	case core.PhaseCore:
		t.next(segSlow, level)
	case core.PhaseArbitrator:
		t.next(segArb, level)
	}
}

// push opens a child span inside the open segment.
func (t *tracer) push(name seg) {
	if t == nil {
		return
	}
	t.child = t.open(name, (*t.spans)[t.seg].level, t.seg, t.now())
}

func (t *tracer) pop() {
	if t == nil {
		return
	}
	t.close(t.child, t.now())
	t.child = -1
}

// end closes the attempt at one stamp, including a child span a crash or
// an abort unwound through.
func (t *tracer) end(out outcome) {
	if t == nil {
		return
	}
	s := t.now()
	if t.child >= 0 {
		t.close(t.child, s)
		t.child = -1
	}
	t.close(t.seg, s)
	t.close(t.root, s)
	(*t.spans)[t.root].out = out
}

// ledger aggregates recorded spans after the run: per segment, the self
// cost (a span minus its children) summed per attempt, plus the checks
// that the segments account for the whole attempt.
type ledger struct {
	passages, aborted, crashed int
	fast, escalated, maxLevel  int

	// per segment, one sample per attempt that ran it: self ns, RMRs and
	// Pause calls. Aborted attempts feed only the abort segments;
	// everything else comes from completed passages.
	ns, rmr, spins [nSeg][]uint32

	// whole completed passages
	passRMR                  []uint32
	nsSum, ops, rmrs, pauses uint64 // totals
	recoveryRMR              []uint32

	// mean self cost per completed passage, by segment and level
	sumNs, sumRMR [nSeg][8]float64

	identity []string // attempts whose segments do not add up
}

// addSpans folds one worker's recorded spans into the ledger.
func (l *ledger) addSpans(spans []span) {
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].parent != -1 {
			j++
		}
		l.addAttempt(spans[i:j])
		i = j
	}
}

// addAttempt checks one attempt's identities and records its segments.
// spans[0] is the root; every other span's parent (an index into spans)
// precedes it.
func (l *ledger) addAttempt(spans []span) {
	root := spans[0]
	childNs := make([]int64, len(spans))
	childR := make([]int64, len(spans))
	childZ := make([]int64, len(spans))
	for i, s := range spans[1:] {
		if s.t1 < 0 {
			l.identity = append(l.identity, fmt.Sprintf("attempt %d: %s span left open", root.pass, s.name))
			return
		}
		if p := s.parent; p > 0 {
			if int(p) > i {
				l.identity = append(l.identity, fmt.Sprintf("attempt %d: %s nested after its parent", root.pass, s.name))
				return
			}
			childNs[p] += s.t1 - s.t0
			childR[p] += int64(s.r1 - s.r0)
			childZ[p] += int64(s.z1 - s.z0)
		}
	}
	var per [nSeg]struct {
		ns, rmr, z int64
		seen       bool
	}
	var sumNs, sumR int64
	level := 0
	for i, s := range spans[1:] {
		selfNs := s.t1 - s.t0 - childNs[i+1]
		selfR := int64(s.r1-s.r0) - childR[i+1]
		selfZ := int64(s.z1-s.z0) - childZ[i+1]
		sumNs += selfNs
		sumR += selfR
		p := &per[s.name]
		p.ns, p.rmr, p.z, p.seen = p.ns+selfNs, p.rmr+selfR, p.z+selfZ, true
		level = max(level, int(s.level))
		if root.out == passOK {
			lv := min(int(s.level), 7)
			l.sumNs[s.name][lv] += float64(selfNs)
			l.sumRMR[s.name][lv] += float64(selfR)
		}
	}
	passNs, passR := root.t1-root.t0, int64(root.r1-root.r0)
	if sumR != passR {
		l.identity = append(l.identity, fmt.Sprintf("attempt %d: segment RMRs sum to %d, attempt made %d", root.pass, sumR, passR))
	}
	if sumNs != passNs {
		l.identity = append(l.identity, fmt.Sprintf("attempt %d: segments cover %d ns of %d", root.pass, sumNs, passNs))
	}
	switch root.out {
	case passAborted:
		l.aborted++
		for _, name := range []seg{segAbort, segGrAbort} {
			if p := per[name]; p.seen {
				l.sample(name, p.ns, p.rmr, p.z)
			}
		}
		return
	case passCrashed:
		l.crashed++
		return
	}
	l.passages++
	for name, p := range per {
		if p.seen {
			l.sample(seg(name), p.ns, p.rmr, p.z)
		}
	}
	l.passRMR = append(l.passRMR, uint32(passR))
	l.nsSum += uint64(passNs)
	l.ops += uint64(root.o1 - root.o0)
	l.rmrs += uint64(passR)
	l.pauses += uint64(root.z1 - root.z0)
	if root.recover {
		l.recoveryRMR = append(l.recoveryRMR, uint32(passR))
	}
	if level <= 1 && !per[segSlow].seen {
		l.fast++
	}
	if per[segGrEnter].seen {
		l.escalated++
	}
	l.maxLevel = max(l.maxLevel, level)
}

func (l *ledger) sample(name seg, ns, rmr, z int64) {
	l.ns[name] = append(l.ns[name], clampU32(ns))
	l.rmr[name] = append(l.rmr[name], clampU32(rmr))
	l.spins[name] = append(l.spins[name], clampU32(z))
}
