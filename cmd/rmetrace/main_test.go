package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rme/internal/core"
	"rme/internal/flight"
	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/trace"
)

// writeDump produces a recording file the way rmesweep -random's
// post-mortem path does: a simulated run with an injected crash,
// converted through trace.SimRecording and trimmed with Tail.
func writeDump(t *testing.T, dir string) string {
	t.Helper()
	r, err := sim.New(sim.Config{N: 3, Model: memory.CC, Requests: 2, Seed: 5,
		Plan: &sim.CrashAtOp{PID: 1, OpIndex: 4}, RecordOps: true},
		func(sp memory.Space, n int) sim.Lock {
			return core.NewWRLock(sp, n, "wr", nil)
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.SimRecording(res).Tail(64)
	path := filepath.Join(dir, "flight-dump.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunChromeFromPostMortemDump(t *testing.T) {
	dir := t.TempDir()
	dump := writeDump(t, dir)
	out := filepath.Join(dir, "trace.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chrome", out, dump}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "chrome trace") {
		t.Fatalf("no confirmation on stdout: %q", stdout.String())
	}

	// Validate the written file against the Chrome trace-event schema:
	// a JSON object with a traceEvents array whose entries carry the
	// required fields for their phase type.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	spans, instants := 0, 0
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		switch ph {
		case "X":
			spans++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d has no dur: %v", i, ev)
			}
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event %d has no ts: %v", i, ev)
			}
		case "i":
			instants++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("instant %d has no ts: %v", i, ev)
			}
		case "M":
			if args, ok := ev["args"].(map[string]any); !ok || args["name"] == nil {
				t.Fatalf("metadata %d has no args.name: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected ph %q", i, ph)
		}
	}
	if spans == 0 {
		t.Error("no span events in the converted dump")
	}
	if instants == 0 {
		t.Error("no instant events despite an injected crash")
	}
}

func TestRunTimelineVocabulary(t *testing.T) {
	dir := t.TempDir()
	dump := writeDump(t, dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-timeline", "-width", "80", dump}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	// The same symbol vocabulary as internal/trace's Timeline legend,
	// verbatim.
	if !strings.Contains(out, "· ncs  ━ passage  █ CS  ✖ crash  │ satisfied") {
		t.Fatalf("legend missing or different:\n%s", out)
	}
	for _, sym := range []string{"█", "│", "✖"} {
		if !strings.Contains(out, sym) {
			t.Fatalf("missing %q in timeline:\n%s", sym, out)
		}
	}
}

func TestRunDefaultsToTimeline(t *testing.T) {
	dir := t.TempDir()
	dump := writeDump(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{dump}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "flight timeline") {
		t.Fatalf("bare invocation did not render the timeline:\n%s", stdout.String())
	}
}

func TestRunSummaryAndTail(t *testing.T) {
	dir := t.TempDir()
	dump := writeDump(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-summary", "-tail", "2", dump}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, flight.RecordingSchema) {
		t.Fatalf("summary missing schema line:\n%s", out)
	}
	// Tail(2) keeps at most 2 events per process.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "p") && strings.Contains(line, "events") {
			fields := strings.Fields(line)
			if len(fields) < 2 || (fields[1] != "1" && fields[1] != "2") {
				t.Fatalf("tail not applied: %q", line)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"/nonexistent/flight.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing-file exit %d, want 1", code)
	}
	// A structurally invalid recording is rejected by Validate on read.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-timeline", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("invalid-recording exit %d, want 1; stderr: %s", code, stderr.String())
	}
}
