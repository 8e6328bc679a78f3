// Command rmetrace renders dumped flight recordings (rme-flight/v1 JSON,
// written by Mutex.FlightRecording + WriteFile, or by rmesweep -random as
// a post-mortem alongside a violation repro).
//
// Usage:
//
//	rmetrace -chrome trace.json flight.json   # Chrome/Perfetto trace
//	rmetrace -timeline flight.json            # ASCII timeline to stdout
//	rmetrace -summary flight.json             # per-process event counts
//
// The Chrome output loads in ui.perfetto.dev or chrome://tracing: each rme
// process is a thread whose passage, phase, and critical-section spans
// nest, with crash/recover/handoff instants on top. The ASCII timeline
// uses the identical symbol vocabulary as the simulator's rmesim
// -timeline chart. -tail N trims the recording to the last N events per
// process first.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rme/internal/flight"
	"rme/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opts are the parsed command-line options, factored out of main so the
// conversion pipeline is testable end to end.
type opts struct {
	chrome   string
	timeline bool
	summary  bool
	width    int
	tail     int
	path     string
}

func parseArgs(args []string, stderr io.Writer) (opts, error) {
	var o opts
	fs := flag.NewFlagSet("rmetrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.chrome, "chrome", "", "write a Chrome trace.json (Perfetto-loadable) to this path")
	fs.BoolVar(&o.timeline, "timeline", false, "render the ASCII timeline to stdout")
	fs.BoolVar(&o.summary, "summary", false, "print per-process event counts")
	fs.IntVar(&o.width, "width", 100, "timeline width in columns")
	fs.IntVar(&o.tail, "tail", 0, "keep only the last N events per process (0 = all)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 1 {
		return o, fmt.Errorf("want exactly one recording file, got %d args", fs.NArg())
	}
	o.path = fs.Arg(0)
	if o.chrome == "" && !o.summary {
		// Default action: the timeline, so a bare invocation shows
		// something useful.
		o.timeline = true
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "rmetrace: %v\n", err)
		return 2
	}
	rec, err := flight.ReadFile(o.path)
	if err != nil {
		fmt.Fprintf(stderr, "rmetrace: %v\n", err)
		return 1
	}
	rec = rec.Tail(o.tail)

	if o.chrome != "" {
		if err := writeChrome(rec, o.chrome); err != nil {
			fmt.Fprintf(stderr, "rmetrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace → %s (open in ui.perfetto.dev or chrome://tracing)\n", o.chrome)
	}
	if o.summary {
		printSummary(stdout, rec)
	}
	if o.timeline {
		fmt.Fprint(stdout, trace.FlightTimeline(rec, o.width))
	}
	return 0
}

// writeChrome converts the recording and writes the trace.json file.
func writeChrome(rec *flight.Recording, path string) error {
	tr, err := flight.Chrome(rec)
	if err != nil {
		return err
	}
	data, err := tr.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary reports the recording header and per-process event counts
// by kind.
func printSummary(w io.Writer, rec *flight.Recording) {
	fmt.Fprintf(w, "recording   %s source=%s clock=%s n=%d\n",
		rec.Schema, rec.Source, rec.Clock, rec.N)
	if rec.Note != "" {
		fmt.Fprintf(w, "note        %s\n", rec.Note)
	}
	for pid, events := range rec.Procs {
		counts := map[flight.Kind]int{}
		for _, ev := range events {
			counts[ev.Kind]++
		}
		fmt.Fprintf(w, "p%-3d %4d events (%d dropped)", pid, len(events), rec.Dropped[pid])
		for k := flight.KindPassageBegin; k <= flight.KindHandoff; k++ {
			if counts[k] > 0 {
				fmt.Fprintf(w, "  %s=%d", k, counts[k])
			}
		}
		fmt.Fprintln(w)
	}
}
