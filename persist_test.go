package rme

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotRestoreIdle(t *testing.T) {
	m, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if !m.Passage(pid, func() {}) {
			t.Fatal("passage failed")
		}
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.N() != 4 || m2.Footprint() != m.Footprint() {
		t.Fatalf("restored mutex shape differs: n=%d footprint=%d vs %d",
			m2.N(), m2.Footprint(), m.Footprint())
	}
	for pid := 0; pid < 4; pid++ {
		if !m2.Passage(pid, func() {}) {
			t.Fatal("restored mutex passage failed")
		}
	}
}

func TestSnapshotRestoreWhileHeld(t *testing.T) {
	// Power failure while process 2 holds the lock: the snapshot captures
	// the held state; after restore, process 2's Lock recovers (bounded
	// re-entry) and everyone proceeds.
	m, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	m.Lock(2)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The previous lifetime is gone; in the new one, process 2 recovers
	// first (BCSR), then releases, then others acquire.
	m2.Lock(2)
	m2.Unlock(2)
	for pid := 0; pid < 3; pid++ {
		if !m2.Passage(pid, func() {}) {
			t.Fatalf("process %d stuck after restore", pid)
		}
	}
}

func TestSnapshotRestoreMidAcquisitionCrash(t *testing.T) {
	// A worker crashes mid-acquisition (injected); the system then dies
	// and is restored; the worker's recovery completes in the new life.
	hits := 0
	m, err := New(2, WithFailures(func(pid int) bool {
		if pid == 0 {
			hits++
			return hits == 5 // crash process 0 at its 5th instruction
		}
		return false
	}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Passage(0, func() {}) {
		t.Fatal("expected the injected crash")
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Passage(0, func() {}) {
		t.Fatal("recovery after restore failed")
	}
	if !m2.Passage(1, func() {}) {
		t.Fatal("other process stuck after restore")
	}
}

func TestSnapshotRoundTripPreservesOptions(t *testing.T) {
	m, err := New(5, WithBase(BaseArbTree), WithLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Footprint() != m.Footprint() {
		t.Fatalf("layout mismatch: %d vs %d words", m2.Footprint(), m.Footprint())
	}
}

func TestSnapshotWithoutReclamationRefused(t *testing.T) {
	m, err := New(2, WithoutReclamation())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(&bytes.Buffer{}); err != ErrSnapshotUnsupported {
		t.Fatalf("err = %v, want ErrSnapshotUnsupported", err)
	}
}

// TestSnapshotDetectsConcurrentMutation: Snapshot under live passages must
// never silently serialize a torn image — each attempt either succeeds (it
// raced with no write) or returns ErrSnapshotConcurrent; successful streams
// must restore. A quiescent snapshot afterwards must succeed.
func TestSnapshotDetectsConcurrentMutation(t *testing.T) {
	const n = 4
	m, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for !stop.Load() {
				m.Passage(pid, func() {})
			}
		}(pid)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		err := m.Snapshot(&buf)
		switch {
		case err == nil:
			if _, rerr := Restore(bytes.NewReader(buf.Bytes()), nil); rerr != nil {
				t.Fatalf("verified snapshot failed to restore: %v", rerr)
			}
		case errors.Is(err, ErrSnapshotConcurrent):
			// Detected the racing writers — the contract.
		default:
			t.Fatalf("unexpected snapshot error: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatalf("quiescent snapshot after contention failed: %v", err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
		// The dense-layout v1 format is a different physical layout;
		// restoring it as v2 would scatter words, so it must be refused.
		"old format": "RMESNAP1\x01\x00\x00\x00\x00\x00\x00\x00",
		"truncated":  "RMESNAP2\x01\x00\x00\x00\x00\x00\x00\x00",
	}
	for name, s := range cases {
		if _, err := Restore(strings.NewReader(s), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Implausible header values.
	var buf bytes.Buffer
	buf.WriteString("RMESNAP2")
	for _, v := range []uint64{0, 1, 1, 0, 10} { // n = 0
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		buf.Write(b[:])
	}
	if _, err := Restore(&buf, nil); err == nil {
		t.Error("accepted n=0 header")
	}
}

func TestRestoreWithFailureInjection(t *testing.T) {
	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	calls := 0
	m2, err := Restore(&buf, func(pid int) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.Lock(0)
	m2.Unlock(0)
	if calls == 0 {
		t.Fatal("failure hook not installed on restore")
	}
}

// limitWriter fails with a torn write after limit bytes, simulating a
// crash partway through persisting a snapshot to stable storage.
type limitWriter struct {
	buf   bytes.Buffer
	limit int
}

func (w *limitWriter) Write(p []byte) (int, error) {
	room := w.limit - w.buf.Len()
	if room <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > room {
		w.buf.Write(p[:room])
		return room, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// TestRestoreRejectsTornWrite: a snapshot cut off at every possible byte
// length — mid-header, mid-body, mid-footer — must never restore; the
// integrity footer turns torn writes into ErrBadSnapshot, not a mutex
// silently rebuilt from partial state.
func TestRestoreRejectsTornWrite(t *testing.T) {
	m, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := m.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit < full.Len(); limit++ {
		w := &limitWriter{limit: limit}
		if err := m.Snapshot(w); err == nil {
			t.Fatalf("Snapshot succeeded against a %d-byte device", limit)
		}
		if _, err := Restore(bytes.NewReader(w.buf.Bytes()), nil); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("torn snapshot at %d/%d bytes restored: err=%v", limit, full.Len(), err)
		}
	}
}

// TestRestoreRejectsCorruption: flipping any single byte of the stream is
// caught by the CRC-64 footer.
func TestRestoreRejectsCorruption(t *testing.T) {
	m, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for i := range snap {
		bad := append([]byte{}, snap...)
		bad[i] ^= 0x40
		if _, err := Restore(bytes.NewReader(bad), nil); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("corruption at byte %d restored: err=%v", i, err)
		}
	}
	// The pristine stream still restores.
	if _, err := Restore(bytes.NewReader(snap), nil); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}
