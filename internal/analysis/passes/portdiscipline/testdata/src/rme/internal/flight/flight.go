// Package flight is a fixture mirror of rme/internal/flight: just enough
// surface for window.go to type-check.
package flight

// Recorder records passage events.
type Recorder struct{}

// Phase records a phase transition.
func (r *Recorder) Phase(pid int, kind, level int) {}
