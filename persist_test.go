package rme

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rme/internal/core"
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
	m, err := New(5, WithBase(BaseArbTree))
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

// TestSnapshotFormatStable pins the RMESNAP6 header — magic, then n,
// base, levels, word 4 and the body length — and checks that a stream
// whose word 4 is non-zero still restores: the word is reserved. The
// same stream under the RMESNAP3, RMESNAP4 or RMESNAP5 magic is refused,
// its length and checksum notwithstanding: the magic alone names the
// layout.
func TestSnapshotFormatStable(t *testing.T) {
	m, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	if got := string(snap[:8]); got != "RMESNAP6" {
		t.Fatalf("magic %q, want RMESNAP6", got)
	}
	want := []uint64{3, uint64(BaseTournament), uint64(core.DefaultLevels(3)), 0, uint64(m.Footprint())}
	for i, w := range want {
		if got := binary.LittleEndian.Uint64(snap[8+8*i:]); got != w {
			t.Errorf("header word %d = %d, want %d", i, got, w)
		}
	}
	if got, want := len(snap), 8+8*len(want)+8*m.Footprint()+8; got != want {
		t.Fatalf("stream is %d bytes, want %d", got, want)
	}

	binary.LittleEndian.PutUint64(snap[8+3*8:], 4096)
	end := len(snap) - 8
	binary.LittleEndian.PutUint64(snap[end:], crc64.Checksum(snap[:end], snapTable))
	m2, err := Restore(bytes.NewReader(snap), nil)
	if err != nil {
		t.Fatalf("stream with word 4 = 4096: %v", err)
	}
	if m2.Footprint() != m.Footprint() {
		t.Fatalf("footprint %d after restore, want %d", m2.Footprint(), m.Footprint())
	}
	if !m2.Passage(2, func() {}) {
		t.Fatal("passage failed after restore")
	}

	for magic, layout := range map[string]string{"RMESNAP3": "double-pool", "RMESNAP4": "Initializing", "RMESNAP5": "three-word WR-Lock process state"} {
		old := append([]byte(magic), snap[8:end]...)
		old = binary.LittleEndian.AppendUint64(old, crc64.Checksum(old, snapTable))
		if _, err := Restore(bytes.NewReader(old), nil); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), layout) {
			t.Fatalf("stream relabelled %s: err = %v, want ErrBadSnapshot naming %q", magic, err, layout)
		}
	}
}

// snapStream assembles a snapshot stream from a magic, a header and a
// body, with a valid CRC-64 footer.
func snapStream(magic string, header [5]uint64, body int) []byte {
	b := []byte(magic)
	for _, v := range header {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, make([]byte, 8*body)...)
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, snapTable))
}

// TestRestoreRejectsImplausibleHeader: a stream with a valid checksum
// whose header names a lock other than the one New builds for its n and
// base, or a body it does not carry, is refused with ErrBadSnapshot,
// quickly and without allocating the arena or the body the header
// claims.
func TestRestoreRejectsImplausibleHeader(t *testing.T) {
	tour := uint64(BaseTournament)
	m2, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	f2 := uint64(m2.Footprint())
	for _, c := range []struct {
		name   string
		header [5]uint64 // n, base, levels, word 4, nwords
		body   int
	}{
		{"n=1<<62", [5]uint64{1 << 62, tour, 62, 0, 16}, 16},
		{"n=65536", [5]uint64{65536, tour, 16, 0, 16}, 16},
		{"n=1024 levels=1", [5]uint64{1024, tour, 1, 0, 16}, 16},
		{"n=2 levels=1<<40", [5]uint64{2, tour, 1 << 40, 0, 16}, 16},
		{"base=99", [5]uint64{2, 99, 1, 0, 16}, 16},
		{"n=2 levels=2", [5]uint64{2, tour, 2, 0, f2}, int(f2)},
		{"words=1<<30 body=16", [5]uint64{2, tour, 1, 0, 1 << 30}, 16},
		{"words=footprint+8", [5]uint64{2, tour, 1, 0, f2 + 8}, int(f2 + 8)},
	} {
		stream := snapStream(snapMagic, c.header, c.body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := Restore(bytes.NewReader(stream), nil)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", c.name, err)
		}
		if took > 50*time.Millisecond {
			t.Errorf("%s: rejected after %v, want under 50ms", c.name, took)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: allocated %d bytes before rejecting", c.name, alloc)
		}
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

// TestRestoreRejectsGarbage: malformed streams, and streams of an older
// layout, are refused with ErrBadSnapshot; an old layout's refusal names
// its magic.
func TestRestoreRejectsGarbage(t *testing.T) {
	tour := uint64(BaseTournament)
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
		// The dense-layout v1 format is a different physical layout;
		// restoring it as v6 would scatter words, so it must be refused.
		"RMESNAP1": "RMESNAP1" + strings.Repeat("\x01\x00\x00\x00\x00\x00\x00\x00", 5),
		// The n = 8 lock of the v2 layout, which gave each arbitrator
		// word a line of its own: 2728 words with a valid checksum.
		"RMESNAP2": string(snapStream("RMESNAP2", [5]uint64{8, tour, uint64(core.DefaultLevels(8)), 0, 2728}, 2728)),
		// The n = 8 lock of the v3 layout, whose §7.2 pools kept two
		// halves of 2n nodes per process: 2248 words.
		"RMESNAP3": string(snapStream("RMESNAP3", [5]uint64{8, tour, uint64(core.DefaultLevels(8)), 0, 2248}, 2248)),
		// The n = 8 lock of the v4 layout: the same 1352 words, but a
		// seven-word arbitrator and a WR-Lock Initializing state.
		"RMESNAP4": string(snapStream("RMESNAP4", [5]uint64{8, tour, uint64(core.DefaultLevels(8)), 0, 1352}, 1352)),
		// The n = 8 lock of the v5 layout: 1352 words, with three
		// WR-Lock words (state, mine, pred) per process and level.
		"RMESNAP5":  string(snapStream("RMESNAP5", [5]uint64{8, tour, uint64(core.DefaultLevels(8)), 0, 1352}, 1352)),
		"truncated": snapMagic + "\x01\x00\x00\x00\x00\x00\x00\x00",
		"n=0":       string(snapStream(snapMagic, [5]uint64{0, 1, 1, 0, 10}, 10)),
	}
	for name, s := range cases {
		_, err := Restore(strings.NewReader(s), nil)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		} else if strings.HasPrefix(name, "RMESNAP") && !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name the old layout", name, err)
		}
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
