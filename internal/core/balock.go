package core

import (
	"fmt"
	"math"
	"strings"

	"rme/internal/memory"
)

// BaseFactory constructs the non-adaptive strongly recoverable base lock
// (NA-Lock) placed at the bottom of the recursion.
type BaseFactory func(sp memory.Space, n int) RecoverableLock

// SourceFactory constructs a NodeSource for the filter lock at one level
// (nil sources select AllocSource). Each level gets its own source, since
// each filter instance manages its own queue nodes.
type SourceFactory func(sp memory.Space, n int, level int) NodeSource

// BALock is the well-bounded super-adaptive lock of Section 5.2
// (Figure 3): m stacked SALock levels whose core at level i is the SALock
// at level i+1, with the base lock at level m. Escalating to level x
// requires at least x(x-1)/2 recent failures (Theorem 5.17), so a passage
// whose super-passage overlaps at most F failures costs
// O(min{√F, T(n)}) RMRs (Theorem 5.18), where T(n) is the base lock's
// worst-case RMR complexity.
//
// Section 7.3's last-known-level memo is not built: its write in Exit
// would cost every failure-free passage one more RMR, and a recovering
// process replays every level from level 1 (EXPERIMENTS §7.3).
type BALock struct {
	n      int
	levels []*SALock // levels[0] is level 1, the outermost
	base   RecoverableLock
}

// DefaultLevels returns the paper's choice of recursion depth m = T(n)
// for a base lock of logarithmic RMR complexity: ⌈log₂ n⌉ (at least 1).
func DefaultLevels(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// SubLogLevels returns m = ⌈log n / log log n⌉ (at least 1), matching a
// sub-logarithmic base lock such as the arbitration tree.
func SubLogLevels(n int) int {
	if n <= 4 {
		return 1
	}
	ln := math.Log2(float64(n))
	m := int(math.Ceil(ln / math.Log2(ln)))
	if m < 1 {
		m = 1
	}
	return m
}

// NewBALock builds a super-adaptive lock for n processes with m levels
// over the base lock produced by base. Filters are named "F1".."Fm"
// (outermost first); their sensitive-FAS labels are "F<k>:fas" and their
// slow-path commitment labels "F<k>:slow". src may be nil.
func NewBALock(sp memory.Space, n, m int, base BaseFactory, src SourceFactory) *BALock {
	if n < 1 {
		panic(fmt.Sprintf("core: NewBALock n = %d", n))
	}
	if m < 1 {
		panic(fmt.Sprintf("core: NewBALock levels = %d", m))
	}
	if base == nil {
		panic("core: NewBALock requires a base lock factory")
	}
	b := &BALock{n: n, levels: make([]*SALock, m)}
	b.base = base(sp, n)
	if b.base == nil {
		panic("core: base factory returned nil")
	}
	inner := b.base
	for level := m; level >= 1; level-- {
		var ns NodeSource
		if src != nil {
			ns = src(sp, n, level)
		}
		sa := NewSALock(sp, n, fmt.Sprintf("F%d", level), inner, ns)
		sa.level = level
		b.levels[level-1] = sa
		inner = sa
	}
	return b
}

// Levels returns the recursion depth m.
func (b *BALock) Levels() int { return len(b.levels) }

// Level returns the SALock instance at 1-based level k.
func (b *BALock) Level(k int) *SALock { return b.levels[k-1] }

// Base returns the base lock.
func (b *BALock) Base() RecoverableLock { return b.base }

// SetPhaseHook installs h (nil removes it) as the observer of pipeline
// transitions at every level; each level reports with its own 1-based
// level number, so an escalating passage is visible as filter(1),
// splitter(1), core(1), filter(2), ... in the hook's event order.
func (b *BALock) SetPhaseHook(h PhaseHook) {
	for _, sa := range b.levels {
		sa.SetPhaseHook(h)
	}
}

// Recover implements RecoverableLock; per the composite-lock convention
// every component recovers immediately before its Enter.
func (b *BALock) Recover(p memory.Port) {}

// Enter acquires the target lock: the process starts at level 1 and is
// escalated one level per unsafe failure it is entangled with.
func (b *BALock) Enter(p memory.Port) { b.levels[0].Enter(p) }

// Exit releases the target lock, level 1 first.
func (b *BALock) Exit(p memory.Port) { b.levels[0].Exit(p) }

// Abort implements Aborter: level 1's Abort recursively backs out of
// every level the process committed to (each level's core is the next
// level, so the recursion follows the persisted slow-path commitments
// down to wherever the process actually was).
func (b *BALock) Abort(p memory.Port) { b.levels[0].Abort(p) }

// SlowLabels returns the slow-path commitment labels of every level,
// outermost first. A passage's escalation depth is the largest k whose
// label appears among its instructions.
func (b *BALock) SlowLabels() []string {
	out := make([]string, len(b.levels))
	for i, sa := range b.levels {
		out[i] = sa.SlowLabel()
	}
	return out
}

// Describe renders the recursive structure (Figure 3).
func (b *BALock) Describe() string {
	var sb strings.Builder
	for i, sa := range b.levels {
		fmt.Fprintf(&sb, "level %d  %s\n", i+1, sa.Describe())
	}
	fmt.Fprintf(&sb, "base     strongly recoverable non-adaptive lock (T(n))\n")
	return sb.String()
}
