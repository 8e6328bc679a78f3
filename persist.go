package rme

import (
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
// serializing a torn image. Snapshots require node reclamation (the
// default), which keeps the arena layout fixed.

// snapMagic identifies the snapshot format. RMESNAP2 is the cache-line-
// padded arena layout; RMESNAP1 streams (the old dense layout) are
// rejected rather than silently misinterpreted, since word addresses
// moved when the layout changed.
const snapMagic = "RMESNAP2"

// snapTable is the CRC-64 polynomial for the integrity footer appended to
// every snapshot: the checksum of header plus body, little-endian, trails
// the stream so that torn writes (a crash partway through Snapshot) and
// bit corruption are both detected by Restore.
var snapTable = crc64.MakeTable(crc64.ECMA)

var (
	// ErrSnapshotUnsupported is returned by Snapshot for mutexes built
	// with WithoutReclamation, whose arena layout grows over time.
	ErrSnapshotUnsupported = errors.New("rme: snapshot requires node reclamation (the default)")
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
	if !m.cfg.reclamation {
		return ErrSnapshotUnsupported
	}
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
		uint64(m.cfg.slack),
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
func Restore(r io.Reader, fail FailFunc) (*Mutex, error) {
	header := make([]byte, 8+5*8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	if string(header[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	fields := make([]uint64, 5)
	for i := range fields {
		fields[i] = binary.LittleEndian.Uint64(header[8+8*i:])
	}
	n := int(fields[0])
	base := Base(fields[1])
	levels := int(fields[2])
	slack := int(fields[3])
	nwords := int(fields[4])
	if n < 1 || levels < 1 || nwords < 1 || nwords > 1<<30 {
		return nil, fmt.Errorf("%w: implausible header (n=%d levels=%d words=%d)", ErrBadSnapshot, n, levels, nwords)
	}

	// Verify the integrity footer before acting on any header field: a
	// corrupted base/levels value must surface as ErrBadSnapshot, not as a
	// configuration error from New.
	buf := make([]byte, 8*nwords)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrBadSnapshot, err)
	}
	var footer [8]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum footer (truncated stream?): %v", ErrBadSnapshot, err)
	}
	want := binary.LittleEndian.Uint64(footer[:])
	got := crc64.Update(crc64.Update(0, snapTable, header), snapTable, buf)
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %016x, computed %016x)", ErrBadSnapshot, want, got)
	}

	opts := []Option{WithBase(base), WithLevels(levels)}
	if slack > 0 {
		opts = append(opts, WithSlack(slack))
	}
	if fail != nil {
		opts = append(opts, WithFailures(fail))
	}
	m, err := New(n, opts...)
	if err != nil {
		return nil, err
	}

	words := make([]uint64, nwords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	if err := m.arena.SetWords(words); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return m, nil
}
