package core

import (
	"rme/internal/flight" // want `algorithm package imports "rme/internal/flight"`
	"rme/internal/memory"
)

// exitBad emits between the sensitive FAS and its persist, adding an
// instruction to the crash window the recovery analysis assumes is
// minimal. The import ban makes every such call impossible.
func exitBad(p memory.Port, tail, pred memory.Addr, fr *flight.Recorder) {
	temp := p.FAS(tail, 1) // rme:sensitive
	fr.Phase(p.PID(), 1, 1)
	p.Write(pred, temp)
}
