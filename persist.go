package rme

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// Snapshot and Restore model non-volatile memory across whole-system
// failures (the system-wide crash–recover scenario of Golab & Hendler,
// PODC 2018, which the paper's related work discusses): the mutex's entire
// shared state — including a held lock, queued waiters' nodes and every
// recovery state machine — is serialized, and a later process lifetime
// reconstructs it byte for byte. Every process then recovers exactly as
// after an individual crash: its next Lock (or Passage) runs the Recover
// segment against the restored state.
//
// Snapshot must be taken at a quiescent point: no Lock, Unlock or Passage
// call may be executing concurrently (a held-but-idle lock is fine — that
// is precisely the power-failure-while-holding case). The contract is
// enforced by detection, not trust: Snapshot verifies its copy with a
// double scan of the arena and returns ErrSnapshotConcurrent instead of
// serializing a torn image.

// snapMagic identifies the snapshot format. RMESNAP6 is the padded arena
// layout with each arbitrator's three shared words (turn and one word
// per side) on one cache line, one ring of 2n queue nodes per process
// and level, and one WR-Lock state word per process and level (its
// persisted predecessor and state). Streams of an older layout are
// refused rather than silently misinterpreted, since word addresses or
// state values changed with the layout: see oldSnapLayouts.
const snapMagic = "RMESNAP6"

// oldSnapLayouts names the layout each refused magic recorded.
var oldSnapLayouts = map[string]string{
	"RMESNAP1": "the dense arena layout",
	"RMESNAP2": "the padded layout with a cache line per arbitrator word",
	"RMESNAP3": "the double-pool layout with two halves of 2n queue nodes per process and level",
	"RMESNAP4": "the seven-word arbitrator and the WR-Lock's Initializing state",
	"RMESNAP5": "the three-word WR-Lock process state (state, mine and pred)",
}

// snapTable is the CRC-64 polynomial for the integrity footer appended to
// every snapshot: the checksum of header plus body, little-endian, trails
// the stream so that torn writes (a crash partway through Snapshot) and
// bit corruption are both detected by Restore.
var snapTable = crc64.MakeTable(crc64.ECMA)

var (
	// ErrBadSnapshot is returned by Restore when the stream is not a
	// valid snapshot.
	ErrBadSnapshot = errors.New("rme: invalid snapshot stream")
	// ErrSnapshotConcurrent is returned by Snapshot when the quiescence
	// contract is violated: a Lock, Unlock or Passage mutated the arena
	// while the snapshot was being taken, so the copy may be torn.
	ErrSnapshotConcurrent = errors.New("rme: arena mutated during snapshot (quiescence violated)")
)

// Snapshot serializes the mutex's shared state to w. See the package
// documentation of this file for the quiescence contract.
func (m *Mutex) Snapshot(w io.Writer) error {
	words, err := m.arena.SnapshotWords()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotConcurrent, err)
	}
	header := make([]byte, 0, 8+5*8)
	header = append(header, snapMagic...)
	for _, v := range []uint64{
		uint64(m.n),
		uint64(m.cfg.base),
		uint64(m.cfg.levels),
		0, // word 4: unused, kept so the header layout stays fixed
		uint64(len(words)),
	} {
		header = binary.LittleEndian.AppendUint64(header, v)
	}
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("rme: writing snapshot header: %w", err)
	}
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("rme: writing snapshot words: %w", err)
	}
	sum := crc64.Update(crc64.Update(0, snapTable, header), snapTable, buf)
	var footer [8]byte
	binary.LittleEndian.PutUint64(footer[:], sum)
	if _, err := w.Write(footer[:]); err != nil {
		return fmt.Errorf("rme: writing snapshot checksum: %w", err)
	}
	return nil
}

// Restore reconstructs a mutex from a snapshot written by Snapshot. fail
// may install a failure-injection hook in the new lifetime (nil for none).
// Every process of the previous lifetime is considered crashed: its next
// Lock call performs recovery.
//
// The stream is the magic, five little-endian words — n, base, levels,
// word 4 and nwords — then nwords body words and a CRC-64 footer. Word 4
// is reserved: Snapshot writes 0 and Restore ignores it (RMESNAP2
// streams once stored an arena slack there). Restore checks the header
// against the lock New builds for (n, base) before building anything,
// so a stream that does not describe that lock fails with
// ErrBadSnapshot.
func Restore(r io.Reader, fail FailFunc) (*Mutex, error) {
	header := make([]byte, 8+5*8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	if magic := string(header[:8]); magic != snapMagic {
		if old, ok := oldSnapLayouts[magic]; ok {
			return nil, fmt.Errorf("%w: an %s stream records %s, which %s replaced", ErrBadSnapshot, magic, old, snapMagic)
		}
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	fields := make([]uint64, 5)
	for i := range fields {
		fields[i] = binary.LittleEndian.Uint64(header[8+8*i:])
	}
	n, base, levels, nwords := fields[0], fields[1], fields[2], fields[4]
	// Each process's §7.2 pool holds at least 2n two-word nodes, so a
	// lock for n processes spans at least 4n² words: bounding n by the
	// body keeps the sizing below proportional to it. (n > nwords is
	// tested first, so 4n² cannot overflow.)
	if n < 1 || nwords > 1<<30 || n > nwords || 4*n*n > nwords {
		return nil, fmt.Errorf("%w: implausible header (n=%d words=%d)", ErrBadSnapshot, n, nwords)
	}
	cfg := config{base: Base(base), fail: fail}
	spec, err := cfg.lockSpec(int(n))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if levels != uint64(spec.Levels) {
		return nil, fmt.Errorf("%w: %d levels, but New builds %d for n=%d", ErrBadSnapshot, levels, spec.Levels, n)
	}

	// Read the body as it arrives, so a short stream never allocates the
	// body its header claims, and verify the integrity footer before
	// acting on it.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, 8*int64(nwords)); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrBadSnapshot, err)
	}
	buf := body.Bytes()
	var footer [8]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum footer (truncated stream?): %v", ErrBadSnapshot, err)
	}
	want := binary.LittleEndian.Uint64(footer[:])
	got := crc64.Update(crc64.Update(0, snapTable, header), snapTable, buf)
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrBadSnapshot, want, got)
	}
	if words := footprint(spec, int(n)); words != int(nwords) {
		return nil, fmt.Errorf("%w: %d words, but the lock for n=%d spans %d", ErrBadSnapshot, nwords, n, words)
	}

	m := newMutex(int(n), cfg, spec, int(nwords))
	words := make([]uint64, nwords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	if err := m.arena.SetWords(words); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return m, nil
}
