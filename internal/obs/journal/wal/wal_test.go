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
func testOpts() options {
	return options{SegmentBytes: 256, SyncEvery: 4, NoSync: true}
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
	w, err := open(dir, testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := appendN(t, w, 5)
	w.Close()
	w, err = open(dir, testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(t.TempDir(), testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(dir, testOpts())
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
	w, err := open(t.TempDir(), testOpts())
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
	w, err := open(t.TempDir(), options{SyncEvery: 64})
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

// TestFailedWriteIsSticky: a failed segment write may leave a hole or a
// torn frame, so no later Sync or Append may report success. Otherwise
// the next barrier would acknowledge a log that recovery truncates.
func TestFailedWriteIsSticky(t *testing.T) {
	dir := t.TempDir()
	w, err := open(dir, options{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	// A read-only handle on the active segment: writes fail, fsync works.
	ro, err := os.Open(filepath.Join(dir, segmentName(w.segIndex)))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rw := w.f
	w.f = ro
	if err := w.Append([]byte("b")); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	w.f = rw
	if err := w.Sync(); err == nil {
		t.Fatal("sync succeeded after a failed write")
	}
	if err := w.Append([]byte("c")); err == nil {
		t.Fatal("append succeeded after a failed write")
	}
	got, err := w.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "a" {
		t.Fatalf("log holds %q, want only %q", got, "a")
	}
}

func TestSyncEveryBatchesFsync(t *testing.T) {
	// With real fsync on, appends below the batch threshold leave the
	// unsynced counter non-zero; Sync drains it. (Counter-level check —
	// we can't observe the disk barrier itself portably.) The fsync
	// histogram observes that one fsync, not the appends.
	w, err := open(t.TempDir(), options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fsyncs := fsyncSeconds().Count()
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
	if err := w.Sync(); err != nil { // nothing unsynced: no fsync
		t.Fatal(err)
	}
	if got := fsyncSeconds().Count() - fsyncs; got != 1 {
		t.Fatalf("fsync histogram observed %d fsyncs, want 1", got)
	}
}

// stubSyncDir replaces the directory fsync for the rest of the test with
// one that counts its calls and returns fail(call) for the call-th one.
func stubSyncDir(t *testing.T, fail func(call int) error) *int {
	t.Helper()
	calls := 0
	prev := syncDir
	syncDir = func(string) error {
		calls++
		return fail(calls)
	}
	t.Cleanup(func() { syncDir = prev })
	return &calls
}

// TestNewSegmentSyncsDir: every segment the log creates, the first one
// and each rotation, is followed by a directory fsync, so its entry
// survives a power loss along with the records synced into it.
func TestNewSegmentSyncsDir(t *testing.T) {
	calls := stubSyncDir(t, func(int) error { return nil })
	dir := t.TempDir()
	w, err := open(dir, options{SegmentBytes: 256, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("Open made %d directory fsyncs, want 1", *calls)
	}
	appendN(t, w, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 || *calls != len(segs) {
		t.Fatalf("%d segments and %d directory fsyncs, want one fsync per segment", len(segs), *calls)
	}
}

// TestFailedDirSyncIsSticky: a directory fsync that fails after a
// rotation means the new segment may vanish on power loss, so the log
// must refuse every later Append and Sync, as after a failed file fsync.
// At Open the failure is returned directly.
func TestFailedDirSyncIsSticky(t *testing.T) {
	injected := errors.New("injected directory fsync failure")
	stubSyncDir(t, func(call int) error {
		if call == 2 {
			return injected
		}
		return nil
	})
	w, err := open(t.TempDir(), options{SegmentBytes: 64, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var appendErr error
	for i := 0; i < 10 && appendErr == nil; i++ {
		appendErr = w.Append([]byte(`{"seq":1,"type":"rotate-me"}` + "\n"))
	}
	if !errors.Is(appendErr, injected) {
		t.Fatalf("append across the failed rotation returned %v, want the injected error", appendErr)
	}
	if err := w.Append([]byte("r")); !errors.Is(err, injected) {
		t.Fatalf("append after a failed directory fsync returned %v", err)
	}
	if err := w.Sync(); !errors.Is(err, injected) {
		t.Fatalf("sync after a failed directory fsync returned %v", err)
	}

	stubSyncDir(t, func(int) error { return injected })
	if _, err := Open(t.TempDir()); !errors.Is(err, injected) {
		t.Fatalf("Open with a failing directory fsync returned %v", err)
	}
}
