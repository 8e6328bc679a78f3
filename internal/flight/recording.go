package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// RecordingSchema identifies the on-disk recording format.
const RecordingSchema = "rme-flight/v1"

// Recording sources: a native-backend flight recorder, or a conversion
// from a simulator run's event history.
const (
	SourceNative = "native"
	SourceSim    = "sim"
)

// Recording clocks: nanoseconds since the recorder epoch, or logical
// scheduler steps (simulator conversions).
const (
	ClockNanos = "ns"
	ClockSteps = "steps"
)

// Recording is a dumped flight recording: one event stream per process,
// each strictly ordered by (Seq, TS). It is the interchange format between
// the recorder (or the sim converter), rmesweep -random post-mortem dumps,
// and cmd/rmetrace.
type Recording struct {
	Schema string `json:"schema"`
	N      int    `json:"n"`
	// Source is "native" or "sim"; Clock is "ns" or "steps".
	Source string `json:"source"`
	Clock  string `json:"clock"`
	// Note is free-form context (e.g. the soak violation that triggered
	// the dump).
	Note string `json:"note,omitempty"`
	// Dropped[p] counts process p's events that are not in Procs[p]:
	// aged out of the ring before the snapshot, or skipped mid-overwrite.
	Dropped []uint64 `json:"dropped"`
	// Procs[p] is process p's surviving event stream, oldest first.
	Procs [][]Event `json:"procs"`
}

// Validate checks the structural invariants rmetrace and the renderers
// rely on: schema/source/clock tags, per-process stream shapes, strictly
// increasing Seq and TS, and known kinds.
func (rec *Recording) Validate() error {
	if rec.Schema != RecordingSchema {
		return fmt.Errorf("flight: schema %q, want %q", rec.Schema, RecordingSchema)
	}
	if rec.Source != SourceNative && rec.Source != SourceSim {
		return fmt.Errorf("flight: unknown source %q", rec.Source)
	}
	if rec.Clock != ClockNanos && rec.Clock != ClockSteps {
		return fmt.Errorf("flight: unknown clock %q", rec.Clock)
	}
	if rec.N < 1 || len(rec.Procs) != rec.N || len(rec.Dropped) != rec.N {
		return fmt.Errorf("flight: n=%d with %d proc streams and %d dropped counters",
			rec.N, len(rec.Procs), len(rec.Dropped))
	}
	for pid, events := range rec.Procs {
		for i, ev := range events {
			if ev.Kind < 1 || ev.Kind > kindMax {
				return fmt.Errorf("flight: p%d event %d has unknown kind %d", pid, i, ev.Kind)
			}
			if i > 0 {
				if ev.Seq <= events[i-1].Seq {
					return fmt.Errorf("flight: p%d seq not increasing at event %d (%d after %d)",
						pid, i, ev.Seq, events[i-1].Seq)
				}
				if ev.TS <= events[i-1].TS {
					return fmt.Errorf("flight: p%d timestamps not strictly monotone at event %d (%d after %d)",
						pid, i, ev.TS, events[i-1].TS)
				}
			}
		}
	}
	return nil
}

// Tail returns a copy of the recording trimmed to at most n events per
// process (the most recent ones), adjusting Dropped accordingly. n <= 0
// returns the recording unchanged.
func (rec *Recording) Tail(n int) *Recording {
	if n <= 0 {
		return rec
	}
	out := *rec
	out.Dropped = append([]uint64(nil), rec.Dropped...)
	out.Procs = make([][]Event, len(rec.Procs))
	for pid, events := range rec.Procs {
		if cut := len(events) - n; cut > 0 {
			events = events[cut:]
			out.Dropped[pid] += uint64(cut)
		}
		out.Procs[pid] = append([]Event(nil), events...)
	}
	return &out
}

// Events returns the total event count across all processes.
func (rec *Recording) Events() int {
	total := 0
	for _, events := range rec.Procs {
		total += len(events)
	}
	return total
}

// MarshalJSON renders the kind as its string name ("passage-begin", ...)
// so dumps are greppable without the Go source at hand.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Seq   uint64 `json:"seq"`
		TS    int64  `json:"ts"`
		Kind  string `json:"kind"`
		Level int    `json:"level,omitempty"`
	}
	return json.Marshal(wire{e.Seq, e.TS, e.Kind.String(), e.Level})
}

// UnmarshalJSON inverts MarshalJSON.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w struct {
		Seq   uint64 `json:"seq"`
		TS    int64  `json:"ts"`
		Kind  string `json:"kind"`
		Level int    `json:"level"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, ok := KindFromString(w.Kind)
	if !ok {
		return fmt.Errorf("flight: unknown event kind %q", w.Kind)
	}
	*e = Event{Seq: w.Seq, TS: w.TS, Kind: k, Level: w.Level}
	return nil
}

// marshal validates and renders the recording as indented JSON with a
// trailing newline — the exact bytes WriteFile and WriteTo emit.
func (rec *Recording) marshal() ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteTo streams the recording to w in the same validated JSON form as
// WriteFile; HTTP handlers serve dumps through it without a temp file.
func (rec *Recording) WriteTo(w io.Writer) (int64, error) {
	data, err := rec.marshal()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// WriteFile writes the recording as indented JSON.
func (rec *Recording) WriteFile(path string) error {
	data, err := rec.marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile reads and validates a recording written by WriteFile.
func ReadFile(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Recording
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("flight: parsing %s: %w", path, err)
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("flight: %s: %w", path, err)
	}
	return &rec, nil
}
