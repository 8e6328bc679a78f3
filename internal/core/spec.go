package core

import "rme/internal/memory"

// LockSpec is a reusable recipe for building a BA-Lock: the recursion
// depth plus the base-lock and node-source factories, captured once and
// replayable into any Space. A sizer replay measures the footprint
// before the real build, relying on the deterministic allocator to
// reproduce the measured layout.
type LockSpec struct {
	// Levels is the recursion depth m (at least 1).
	Levels int
	// Base constructs the strongly recoverable base lock.
	Base BaseFactory
	// Source constructs per-level node sources; nil selects AllocSource.
	Source SourceFactory
}

// Build constructs a BA-Lock for n processes from the spec inside sp.
func (s LockSpec) Build(sp memory.Space, n int) *BALock {
	return NewBALock(sp, n, s.Levels, s.Base, s.Source)
}
