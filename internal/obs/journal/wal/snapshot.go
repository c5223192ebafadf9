package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshots are point-in-time copies of the controller world, named by
// the journal sequence number they were taken at: snap-<seq>.snap. Each
// file carries the same 8-byte length+CRC32-C frame as a WAL record so a
// half-written or bit-flipped snapshot is detected rather than trusted.
// Writes go through a temp file, fsync, os.Rename and a directory fsync,
// so a snapshot is either fully present or absent — never torn — and a
// snapshot WriteSnapshot reported written survives a power loss. The newest two snapshots
// are retained: if a crash corrupts the newest (e.g. a torn sector the
// rename happened to survive), recovery falls back to the previous one
// and replays a longer log tail.

// ErrNoSnapshot reports that the state directory has no usable snapshot;
// recovery must replay the log from genesis.
var ErrNoSnapshot = errors.New("wal: no usable snapshot")

const snapshotsKept = 2

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// snapshotTempPattern names the temp file a snapshot is written to before
// its rename. A crash between creating and renaming one leaves it behind;
// removeSnapshotTemps deletes such orphans at recovery.
const snapshotTempPattern = "snap-*.tmp"

// removeSnapshotTemps deletes every snapshot temp file in dir. Only the
// single writer may call it — at recovery, before any snapshot can be in
// flight — since a temp file is never valid once its writer is gone.
func removeSnapshotTemps(dir string) error {
	orphans, err := filepath.Glob(filepath.Join(dir, snapshotTempPattern))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, name := range orphans {
		if err := os.Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: removing %s: %w", filepath.Base(name), err)
		}
	}
	return nil
}

// WriteSnapshot durably writes payload as the snapshot at journal
// sequence seq and prunes all but the newest two snapshots. The write is
// atomic: a crash at any point leaves either the old snapshot set or the
// new one, never a torn file with a valid name.
func WriteSnapshot(dir string, seq uint64, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, castagnoli))

	// Header and payload go to the temp file in two writes rather than
	// through a framed copy of the payload: the file only becomes visible
	// under its final name after the fsync, so a crash between the writes
	// leaves nothing recovery would read.
	tmp, err := os.CreateTemp(dir, snapshotTempPattern)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(header[:])
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotName(seq))); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: %w", err)
	}
	// The rename is durable only once the directory is. Until then a
	// power loss can undo it, so the older snapshots stay unpruned.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: directory fsync after snapshot %d: %w", seq, err)
	}
	pruneSnapshots(dir)
	return nil
}

// snapshotSeqs lists the snapshot sequence numbers in dir, ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		var s uint64
		if _, err := fmt.Sscanf(e.Name(), "snap-%016x.snap", &s); err == nil {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// pruneSnapshots removes all but the newest snapshotsKept snapshots.
// Pruning is best-effort: a leftover snapshot wastes disk, nothing else.
func pruneSnapshots(dir string) {
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		return
	}
	for _, s := range seqs[:max(0, len(seqs)-snapshotsKept)] {
		os.Remove(filepath.Join(dir, snapshotName(s)))
	}
}

// LatestSnapshot returns the payload and journal sequence of the newest
// valid snapshot in dir. A corrupt newest snapshot is skipped (and
// deleted) in favor of the previous one; with no valid snapshot at all it
// returns ErrNoSnapshot.
func LatestSnapshot(dir string) (payload []byte, seq uint64, err error) {
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, ErrNoSnapshot
		}
		return nil, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, snapshotName(seqs[i]))
		payload, ok := readSnapshotFile(path)
		if ok {
			return payload, seqs[i], nil
		}
		os.Remove(path) // corrupt: fall back to the previous snapshot
	}
	return nil, 0, ErrNoSnapshot
}

// readSnapshotFile reads and CRC-verifies one snapshot file.
func readSnapshotFile(path string) ([]byte, bool) {
	framed, err := os.ReadFile(path)
	if err != nil || len(framed) < frameHeaderSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(framed[0:4])
	sum := binary.LittleEndian.Uint32(framed[4:8])
	if int(n) != len(framed)-frameHeaderSize {
		return nil, false
	}
	payload := framed[frameHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, false
	}
	return payload, true
}
