package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testOpts keeps segments tiny so rotation tests don't need megabytes.
func testOpts() Options {
	return Options{SegmentBytes: 256, SyncEvery: 4, NoSync: true}
}

func appendN(t *testing.T, w *WAL, n int) [][]byte {
	t.Helper()
	var recs [][]byte
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf(`{"seq":%d,"type":"test","at":%d}`+"\n", i+1, i))
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func assertRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 10)
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// ReadDir sees the same records without opening for append.
	got, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want)
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 50) // ~34 bytes framed each; 256-byte segments force rotation
	w.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want)
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := appendN(t, w, 5)
	w.Close()
	w, err = Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	more := appendN(t, w, 5)
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	assertRecords(t, got, append(first, more...))
}

func TestEmptyStateDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh") // does not exist yet
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh dir returned %d records", len(got))
	}
	w.Close()
	if recs, err := ReadDir(filepath.Join(t.TempDir(), "nope")); err != nil || recs != nil {
		t.Fatalf("ReadDir on missing dir: recs=%v err=%v", recs, err)
	}
}

func TestAppendRejectsBadRecords(t *testing.T) {
	w, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := w.Append(make([]byte, maxRecordBytes+1)); err == nil {
		t.Error("oversize record accepted")
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

// writeTorture opens a WAL, appends n records, closes it, and returns
// the records for later comparison.
func writeTorture(t *testing.T, dir string, n int) [][]byte {
	t.Helper()
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs := appendN(t, w, n)
	w.Close()
	return recs
}

func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	want := writeTorture(t, dir, 6)
	// Tear the final record: chop a few bytes off the end of the last
	// segment, as if the process died mid-write.
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want[:len(want)-1])
	// The log must accept appends at the truncation point.
	more := appendN(t, w, 1)
	got, _ = w.ReadAll()
	w.Close()
	assertRecords(t, got, append(want[:len(want)-1], more...))
}

func TestTruncatedToMidHeader(t *testing.T) {
	dir := t.TempDir()
	want := writeTorture(t, dir, 4)
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Leave only 5 bytes of the final frame: a torn header.
	lastLen := int64(frameHeaderSize + len(want[len(want)-1]))
	if err := os.Truncate(seg, info.Size()-lastLen+5); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want[:len(want)-1])
}

func TestBitFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	want := writeTorture(t, dir, 6)
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the payload of the second-to-last record of this
	// segment: the scan must stop there, dropping that record AND the
	// valid-looking one after it (prefix durability).
	lastLen := frameHeaderSize + len(want[len(want)-1])
	prevLen := frameHeaderSize + len(want[len(want)-2])
	flipAt := len(data) - lastLen - prevLen + frameHeaderSize + 2
	data[flipAt] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got, want[:len(want)-2])
}

func TestBadFrameInvalidatesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	writeTorture(t, dir, 50) // several segments
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment: everything after it was never durable.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+2] ^= 0x01 // first record's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// ReadDir (no repair) stops at the bad frame.
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("ReadDir returned %d records past a bad first frame", len(got))
	}
	// Open repairs: truncates segment 1 and deletes the later segments.
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	segs, _ = filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("recovery left %d segments, want 1", len(segs))
	}
	if got, _ := w.ReadAll(); len(got) != 0 {
		t.Fatalf("recovered log has %d records, want 0", len(got))
	}
}

func TestClosedWALRefusesAppends(t *testing.T) {
	w, err := Open(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err == nil {
		t.Error("append after close succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Error("sync after close succeeded")
	}
}

// TestFailedSyncIsSticky: once an fsync fails, the records it covered may
// never reach stable storage, so no later Sync or Append may report
// success. A retry that returned nil would let the caller acknowledge
// work that is not durable.
func TestFailedSyncIsSticky(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("r")); err != nil {
		t.Fatal(err)
	}
	// Close the descriptor underneath the log so the next fsync fails.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync on a failed descriptor succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("retried sync succeeded after an fsync failure")
	}
	if err := w.Append([]byte("r")); err == nil {
		t.Fatal("append succeeded after an fsync failure")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: want ErrNoSnapshot, got %v", err)
	}
	if err := WriteSnapshot(dir, 10, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 20, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	payload, seq, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 20 || string(payload) != `{"a":2}` {
		t.Fatalf("got seq=%d payload=%q", seq, payload)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := WriteSnapshot(dir, seq*10, []byte(fmt.Sprintf(`{"s":%d}`, seq))); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != snapshotsKept {
		t.Fatalf("kept %d snapshots, want %d", len(snaps), snapshotsKept)
	}
	_, seq, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 50 {
		t.Fatalf("latest seq %d, want 50", seq)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, []byte(`{"good":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 20, []byte(`{"bad":true}`)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's payload.
	newest := filepath.Join(dir, snapshotName(20))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+1] ^= 0x80
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, seq, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 || string(payload) != `{"good":true}` {
		t.Fatalf("fallback returned seq=%d payload=%q", seq, payload)
	}
	// The corrupt snapshot must be gone so the next boot doesn't retry it.
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still present (err=%v)", err)
	}
}

func TestAllCorruptSnapshotsIsNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(10))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

// TestSnapshotPresentLogMissing is the restart shape where the log was
// pruned (or lost) but a snapshot survived: WAL recovery must come up
// empty and clean, ready for new appends starting after the snapshot.
func TestSnapshotPresentLogMissing(t *testing.T) {
	dir := t.TempDir()
	writeTorture(t, dir, 8)
	if err := WriteSnapshot(dir, 8, []byte(`{"world":1}`)); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	w, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if recs, _ := w.ReadAll(); len(recs) != 0 {
		t.Fatalf("log reappeared with %d records", len(recs))
	}
	payload, seq, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 || string(payload) != `{"world":1}` {
		t.Fatalf("snapshot lost: seq=%d payload=%q", seq, payload)
	}
}

func TestSyncEveryBatchesFsync(t *testing.T) {
	// With real fsync on, appends below the batch threshold leave the
	// unsynced counter non-zero; Sync drains it. (Counter-level check —
	// we can't observe the disk barrier itself portably.)
	w, err := Open(t.TempDir(), Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	unsynced := w.unsynced
	w.mu.Unlock()
	if unsynced != 3 {
		t.Fatalf("unsynced=%d after 3 appends with SyncEvery=8", unsynced)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	unsynced = w.unsynced
	w.mu.Unlock()
	if unsynced != 0 {
		t.Fatalf("unsynced=%d after Sync", unsynced)
	}
}
