package core

// PhaseKind identifies a stage of the SALock pipeline
// filter → splitter → {fast | core} → arbitrator, reported through a
// PhaseHook as a process's passage navigates the lock.
type PhaseKind int

// Pipeline phases, in acquisition order. PhaseSplitter covers the
// fast-path claim on the arbitrator's Left side and the path commitment;
// PhaseFast and PhaseCore are its mutually exclusive outcomes.
const (
	PhaseFilter PhaseKind = iota + 1
	PhaseSplitter
	PhaseFast
	PhaseCore
	PhaseArbitrator
)

// String implements fmt.Stringer.
func (k PhaseKind) String() string {
	switch k {
	case PhaseFilter:
		return "filter"
	case PhaseSplitter:
		return "splitter"
	case PhaseFast:
		return "fast"
	case PhaseCore:
		return "core"
	case PhaseArbitrator:
		return "arbitrator"
	}
	return "unknown"
}

// PhaseHook observes pipeline transitions: process pid is entering phase
// ph of the SALock at 1-based BA-Lock level. Hooks are called on the
// process's goroutine, must not issue Port instructions (they observe the
// algorithm, they are not part of it — the flight recorder's tear-freedom
// and zero-RMR arguments rest on this), and must be cheap: they run on
// the failure-free hot path whenever installed.
type PhaseHook func(pid int, ph PhaseKind, level int)
