package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic shape. Every workload is a closed loop: a
// worker issues its next passage only when the previous one returned,
// because lock callers block until they hold the lock.
type workload struct {
	name    string
	why     string
	workers int
	faults  bool // PassageCtx under deadlines and unsafe crashes
	keyed   bool // rme.Map over Zipf-drawn keys
	record  bool // the CS updates a protected 4-line record
}

var workloads = []workload{
	{
		name: "mutex-solo", workers: 1,
		why: "one worker, empty CS on rme.New(8): the failure-free passage constant with every layer uncontended",
	},
	{
		name: "mutex-pair", workers: 2, record: true,
		why: "two workers contend on one lock: queue handoff, Pause spinning and cache-line migration sit on the blocking path",
	},
	{
		name: "mutex-faults", workers: 2, faults: true,
		why: "PassageCtx with 50us deadlines and unsafe crashes after the filter FAS: the only traffic through recovery, escalation and abort",
	},
	{
		name: "map-zipf", workers: 2, keyed: true,
		why: "rme.Map on Zipf(1.1) keys over 16384: key resolution, eviction and lock rebuilds on an arena larger than the caches",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

const (
	procs     = 8 // the lock is sized for 8 processes: rme.New(8)
	zipfKeys  = 16384
	zipfS     = 1.1
	rankDraws = 1 << 16 // ranks drawn per worker, then cycled
	setSize   = 512     // Map default: 8 shards × 64 slots
	headRanks = 64      // rme.map.head: ranks below this
	tailRank  = 4096    // rme.map.tail: ranks at or above this
	faultRate = 1.0 / 1000
	deadline  = 50 * time.Microsecond
	downtime  = 50 * time.Microsecond
)

// keyNames are the Map keys, indexed by Zipf rank.
var keyNames = func() []string {
	ks := make([]string, zipfKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("key-%05d", i)
	}
	return ks
}()

// drawRanks returns each worker's key-rank stream, drawn from the seed
// alone so the same seed replays the same inputs. Unkeyed workloads get
// nil streams (every passage uses lock 0).
func drawRanks(w workload, seed uint64) [][]uint16 {
	out := make([][]uint16, w.workers)
	if !w.keyed {
		return out
	}
	for i := range out {
		r := rand.New(rand.NewPCG(seed, uint64(i)+1))
		z := rand.NewZipf(r, zipfS, 1, zipfKeys-1)
		out[i] = make([]uint16, rankDraws)
		for j := range out[i] {
			out[i][j] = uint16(z.Uint64())
		}
	}
	return out
}

// outcome classifies one passage attempt.
type outcome uint8

const (
	passOK outcome = iota
	passAborted
	passCrashed
)

// target is one lock under test. pass runs one passage attempt for w —
// acquire, w's critical section, release — and reports how it ended.
// Before calling w.cs it sets w.k to the lock or key index it holds.
type target interface {
	pass(w *worker) outcome
}

// padded types keep per-index state of the two workers off each
// other's cache lines, so the checker does not add false sharing.
type slot32 struct {
	v atomic.Int32
	_ [60]byte
}

type slot64 struct {
	v atomic.Int64
	_ [56]byte
}

// checker verifies the outputs of a workload run: per-index occupancy
// (mutual exclusion per lock, or per key for Map), the protected record
// of mutex-pair, and the CS count every passage must account for.
type checker struct {
	occ        []slot32
	violations atomic.Int64
	record     []slot64 // 4 lines on mutex-pair, empty otherwise
	csRuns     atomic.Int64
}

func newChecker(w workload) *checker {
	c := &checker{occ: make([]slot32, 1)}
	if w.keyed {
		c.occ = make([]slot32, zipfKeys)
	}
	if w.record {
		c.record = make([]slot64, 4)
	}
	return c
}

// problems lists every violated output property.
func (c *checker) problems() []string {
	var out []string
	if v := c.violations.Load(); v != 0 {
		out = append(out, fmt.Sprintf("mutual exclusion violated %d times", v))
	}
	runs := c.csRuns.Load()
	for i := range c.record {
		if got := c.record[i].v.Load(); got != runs {
			out = append(out, fmt.Sprintf("record line %d = %d after %d critical sections (lost update)", i, got, runs))
		}
	}
	return out
}

// worker is one closed-loop client impersonating process pid.
type worker struct {
	pid   int
	ranks []uint16
	ri    int
	rank  int // key rank of the current request (0 when unkeyed)
	k     int // lock or key index the CS checks; set by the target
	chk   *checker
	csFn  func()
	base  time.Time
	ctx   context.Context // never fires: for deadline-free PassageCtx

	start     int64 // current attempt start, ns since base
	deadline  int64 // current attempt deadline, ns since base; 0 = none
	measuring bool  // the attempt starts inside a recorded window

	attempts, ok, aborted, crashed, csRuns uint64

	rec        *recorder
	cur        int
	wins       []window
	head, tail *recorder // map-zipf rank classes, when recorded
	overshoot  []uint32  // aborted attempts: return time minus deadline
	recovery   []uint32  // first successful attempt after a crash
	recovering bool
}

// window is what one worker, or all workers merged, saw in one window.
type window struct {
	ok uint64
	ns sparse // client-timed successful passages
}

func (w *worker) now() int64 { return int64(time.Since(w.base)) }

// cs is the critical section: the occupancy check around the workload's
// protected work.
func (w *worker) cs() {
	c := w.chk
	o := &c.occ[w.k].v
	if o.Add(1) != 1 {
		c.violations.Add(1)
	}
	for i := range c.record {
		r := &c.record[i].v
		r.Store(r.Load() + 1)
	}
	o.Add(-1)
	w.csRuns++
}

// phase says how long workers run and what they record. With nwin > 0
// they run until warm + nwin·win ns after the phase base and record each
// window after the warm-up; otherwise each completes quota passages and
// records nothing. Each worker starts skip draws into its rank stream, so
// a pass split into slices goes on where its previous slice stopped.
type phase struct {
	warm, win int64
	nwin      int
	quota     int
	skip      int
	classes   bool
}

// windows returns a phase of n windows of length win after warm.
func windows(warm, win time.Duration, n int) phase {
	return phase{warm: int64(warm), win: int64(win), nwin: n}
}

// count returns a phase in which each worker completes n passages.
func count(n int) phase { return phase{quota: max(n, 1)} }

// run drives v until the phase ends. A request is retried after a crash
// (following a downtime) or an abort until it completes, and the phase
// ends only between requests, so no worker leaves a lock held.
func (w *worker) run(v target, ph phase) {
	w.cur = -1
	w.wins = make([]window, ph.nwin)
	end := ph.warm + int64(ph.nwin)*ph.win
	done := 0
	if w.ranks != nil {
		w.ri = ph.skip % len(w.ranks)
	}
	w.nextRank()
	t := w.now()
	for {
		w.start, w.deadline = t, 0
		w.measuring = ph.nwin > 0 && t >= ph.warm && t < end
		w.attempts++
		out := v.pass(w)
		t2 := w.now()
		wi := -1
		if ph.nwin > 0 && t2 >= ph.warm {
			wi = int((t2 - ph.warm) / ph.win)
		}
		if wi != w.cur {
			w.flush()
			w.cur = wi
		}
		in := wi >= 0 && wi < ph.nwin
		switch out {
		case passOK:
			w.ok++
			done++
			if in {
				d := t2 - t
				w.rec.add(d)
				w.wins[wi].ok++
				if w.recovering {
					w.recovery = append(w.recovery, clampU32(d))
				}
				if ph.classes {
					if w.rank < headRanks {
						w.head.add(d)
					} else if w.rank >= tailRank {
						w.tail.add(d)
					}
				}
			}
			w.recovering = false
			if ph.nwin == 0 && done >= ph.quota || ph.nwin > 0 && t2 >= end {
				w.flush()
				return
			}
			w.nextRank()
		case passAborted:
			w.aborted++
			if in {
				w.overshoot = append(w.overshoot, clampU32(t2-w.deadline))
			}
		case passCrashed:
			w.crashed++
			w.recovering = true
			for up := t2 + int64(downtime); t2 < up; t2 = w.now() {
				runtime.Gosched()
			}
		}
		t = t2
	}
}

func (w *worker) nextRank() {
	if w.ranks == nil {
		return
	}
	w.rank = int(w.ranks[w.ri])
	w.ri = (w.ri + 1) % len(w.ranks)
}

// flush closes the current window's latency histogram.
func (w *worker) flush() {
	if w.cur >= 0 && w.cur < len(w.wins) {
		w.wins[w.cur].ns = w.rec.take()
	}
}

func clampU32(v int64) uint32 {
	return uint32(min(max(v, 0), math.MaxUint32))
}

// phaseRun is one phase's outcome, merged over its workers.
type phaseRun struct {
	wins                           []window
	workers                        []*worker
	attempts, ok, aborted, crashed uint64
}

// recorders are reused from phase to phase (a worker's recorder is empty
// when its phase ends): allocating 512 KB per worker and phase would
// start collections in the middle of allocation-free workloads.
var recorders = sync.Pool{New: func() any { return newRecorder() }}

// runPhase drives target v with one worker per rank stream for phase ph
// and checks the attempt partition: every attempt ended exactly one way,
// every successful passage ran the CS once, and every crash was one the
// fault plan injected (plan may be nil).
func runPhase(v target, ranks [][]uint16, chk *checker, plan *faultPlan, ph phase) (*phaseRun, error) {
	ws := make([]*worker, len(ranks))
	fired0 := plan.fired()
	base := time.Now()
	var wg sync.WaitGroup
	for i := range ws {
		w := &worker{pid: i, ranks: ranks[i], chk: chk, base: base, ctx: context.Background(),
			rec: recorders.Get().(*recorder)}
		w.csFn = w.cs
		if ph.classes {
			w.head, w.tail = newRecorder(), newRecorder()
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(v, ph)
		}()
	}
	wg.Wait()
	r := &phaseRun{workers: ws, wins: make([]window, ph.nwin)}
	var csRuns uint64
	for _, w := range ws {
		r.attempts += w.attempts
		r.ok += w.ok
		r.aborted += w.aborted
		r.crashed += w.crashed
		csRuns += w.csRuns
		for i, x := range w.wins {
			r.wins[i].ok += x.ok
			r.wins[i].ns = merge(r.wins[i].ns, x.ns)
		}
		w.rec.take()
		recorders.Put(w.rec)
		w.rec = nil
	}
	chk.csRuns.Add(int64(csRuns))
	switch {
	case r.attempts != r.ok+r.aborted+r.crashed:
		return r, fmt.Errorf("attempt partition broken: %d attempts != %d ok + %d aborted + %d crashed",
			r.attempts, r.ok, r.aborted, r.crashed)
	case csRuns != r.ok && v != target(clockOnly{}):
		return r, fmt.Errorf("attempt partition broken: %d successful passages ran %d critical sections", r.ok, csRuns)
	case r.crashed != plan.fired()-fired0:
		return r, fmt.Errorf("attempt partition broken: %d crashed attempts but %d injected crashes",
			r.crashed, plan.fired()-fired0)
	}
	return r, nil
}

// append adds the windows and tallies of a later phase on the same
// workload.
func (r *phaseRun) append(o *phaseRun) {
	r.wins = append(r.wins, o.wins...)
	r.workers = append(r.workers, o.workers...)
	r.attempts += o.attempts
	r.ok += o.ok
	r.aborted += o.aborted
	r.crashed += o.crashed
}

// perWindow maps each window to a value; windows where f fails (too few
// samples for a percentile) are left out.
func (r *phaseRun) perWindow(f func(window) (float64, error)) []float64 {
	var out []float64
	for _, x := range r.wins {
		if v, err := f(x); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// all returns every worker's values of one sample list, merged.
func (r *phaseRun) all(f func(*worker) []uint32) sparse {
	var out sparse
	for _, w := range r.workers {
		out = merge(out, sparseOf(f(w)))
	}
	return out
}

// faultPlan injects the paper's unsafe failure: with probability
// faultRate per filter fetch-and-store (":fas"), the process crashes at
// its very next instruction, after the FAS executed but before its
// result was persisted. Each process draws from its own seeded stream.
type faultPlan struct {
	rate  float64 // crash probability per filter FAS (faultRate; tests raise it)
	procs []faultProc
}

type faultProc struct {
	rng   *rand.Rand
	armed bool
	fires uint64
	_     [48]byte
}

func newFaultPlan(seed, stream uint64) *faultPlan {
	f := &faultPlan{rate: faultRate, procs: make([]faultProc, procs)}
	for i := range f.procs {
		f.procs[i].rng = rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, stream<<8|uint64(i)))
	}
	return f
}

// labeled is the rme.LabeledFailFunc: it is consulted on the process's
// own goroutine before every instruction.
func (f *faultPlan) labeled(pid int, label string) bool {
	p := &f.procs[pid]
	if p.armed {
		p.armed = false
		p.fires++
		return true
	}
	if strings.HasSuffix(label, ":fas") && p.rng.Float64() < f.rate {
		p.armed = true
	}
	return false
}

// fired returns the number of crashes injected so far; call it only
// while no worker runs.
func (f *faultPlan) fired() uint64 {
	if f == nil {
		return 0
	}
	var n uint64
	for i := range f.procs {
		n += f.procs[i].fires
	}
	return n
}
