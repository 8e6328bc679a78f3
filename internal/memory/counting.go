package memory

import (
	"fmt"
	"sync/atomic"
)

// This file is the native backend's RMR observability hook: a counting
// wrapper around NativePort that classifies every shared-memory
// instruction under the cache-coherent (CC) model, exactly as the
// simulated Arena does, instead of estimating remoteness from timing.
//
// The CC rule (Section 2.6 of the paper, mirrored from Arena.charge):
//
//   - a write or RMW always goes to main memory: it is an RMR, it
//     invalidates every other process's cached copy, and the writer
//     retains a valid copy;
//   - a read is an RMR iff the word is not validly cached, after which
//     the reader holds a valid copy.
//
// A VersionTable holds one monotonically increasing write version per
// word; each CountingPort privately remembers the version it last
// cached per word. A read is a cache hit iff the remembered version is
// still current. Version bumps are atomic but are issued separately
// from the data instruction itself, so when two processes race on the
// same word a read racing a write may be classified against the
// version an instant before or after the write — either order is a
// legal linearization of the CC model, and the op and RMR counters
// themselves are never torn. Under the serialized schedules of tests
// and the quiescent phases of benchmarks the classification is exact.

// VersionTable tracks per-word write versions for CC-model RMR
// classification on the native backend. One table is shared by all
// CountingPorts of an arena; size it with NativeArena.Capacity.
type VersionTable struct {
	ver []atomic.Uint64
}

// NewVersionTable returns a table covering words addresses [0, words).
func NewVersionTable(words int) *VersionTable {
	if words < 1 {
		panic(fmt.Sprintf("memory: NewVersionTable(%d)", words))
	}
	return &VersionTable{ver: make([]atomic.Uint64, words)}
}

// Words returns the number of word addresses the table covers.
func (t *VersionTable) Words() int { return len(t.ver) }

// OpCounts aggregates the classified shared-memory traffic of one
// process. Counters only grow; an instruction aborted by an injected
// crash (the crash fires immediately before execution) is not counted,
// matching the simulator's accounting.
type OpCounts struct {
	// Ops is the number of shared-memory instructions executed.
	Ops uint64
	// RMRs is the number of those instructions that were remote under
	// the CC model.
	RMRs uint64
}

// CountingPort wraps a NativePort with exact CC-model RMR accounting
// and label observation. It implements Port; like the port it wraps, it
// must only be used from the goroutine currently impersonating the
// process. It fills two whole cache lines, so the counters it writes on
// every instruction share no line with another process's port.
type CountingPort struct {
	inner *NativePort
	// ver and seen are vt's versions and cache in the inner port's frame
	// (SetOffset), so the hot path indexes them with the port address.
	ver    []atomic.Uint64
	seen   []Word
	counts OpCounts
	// onLabel, when non-nil, observes every non-empty label issued
	// through the port (before it is forwarded to the inner port, so
	// failure injection still sees it on the instruction).
	onLabel func(label string)
	vt      *VersionTable
	// cache[a] is the version of arena word a plus one at the time the
	// port last cached it; 0 = invalid.
	cache []Word
	_     [16]byte
}

var _ Port = (*CountingPort)(nil)

// CountPort wraps inner with CC-exact accounting against vt. onLabel
// may be nil. vt must cover the arena's full capacity (use
// NativeArena.Capacity), so that every address the arena can ever hand
// out is classifiable.
func CountPort(inner *NativePort, vt *VersionTable, onLabel func(string)) *CountingPort {
	if inner == nil {
		panic("memory: CountPort(nil)")
	}
	if vt == nil {
		panic("memory: CountPort requires a version table")
	}
	c := &CountingPort{inner: inner, vt: vt, cache: make([]Word, vt.Words()), onLabel: onLabel}
	c.SetOffset(inner.off)
	return c
}

// SetOffset shifts the port's frame with the inner port's
// (NativePort.SetOffset). Versions and cache state stay per arena word,
// so a word written through one frame is an RMR when read through
// another, and two words that share an address in different frames
// never share cache state.
func (c *CountingPort) SetOffset(off Addr) {
	c.inner.SetOffset(off)
	c.ver, c.seen = c.vt.ver[off:], c.cache[off:]
}

// Counts returns the traffic recorded so far. It must be called from
// the owning goroutine (or at quiescence); harnesses that publish the
// numbers across goroutines copy them into atomics at passage
// boundaries.
func (c *CountingPort) Counts() OpCounts { return c.counts }

// InvalidateCache drops every cached word. Harnesses call it when the
// process crashes: cache contents are private state and do not survive
// a failure, exactly as Arena.InvalidateCache models.
func (c *CountingPort) InvalidateCache() {
	clear(c.cache)
}

// PID implements Port.
func (c *CountingPort) PID() int { return c.inner.PID() }

// N implements Port.
func (c *CountingPort) N() int { return c.inner.N() }

// Alloc implements Port.
func (c *CountingPort) Alloc(nwords, home int) Addr { return c.inner.Alloc(nwords, home) }

// Pause implements Port.
func (c *CountingPort) Pause() { c.inner.Pause() }

// Label implements Port.
func (c *CountingPort) Label(l string) {
	if c.onLabel != nil && l != "" {
		c.onLabel(l)
	}
	c.inner.Label(l)
}

// write classifies a write-class instruction on a: always an RMR; every
// other cached copy is invalidated and the writer retains a valid one.
func (c *CountingPort) write(a Addr) {
	c.counts.Ops++
	c.counts.RMRs++
	c.seen[a] = Word(c.ver[a].Add(1)) + 1
}

// Read implements Port.
func (c *CountingPort) Read(a Addr) Word {
	w := c.inner.Read(a)
	c.counts.Ops++
	if v := Word(c.ver[a].Load()) + 1; c.seen[a] != v {
		c.counts.RMRs++
		c.seen[a] = v
	}
	return w
}

// Write implements Port.
func (c *CountingPort) Write(a Addr, v Word) {
	c.inner.Write(a, v)
	c.write(a)
}

// FAS implements Port.
func (c *CountingPort) FAS(a Addr, v Word) Word {
	old := c.inner.FAS(a, v)
	c.write(a)
	return old
}

// CAS implements Port. Like the simulated arena, a failed CAS is still
// charged as an RMR and still invalidates other copies: the RMW goes to
// main memory regardless of its outcome.
func (c *CountingPort) CAS(a Addr, old, new Word) bool {
	ok := c.inner.CAS(a, old, new)
	c.write(a)
	return ok
}
