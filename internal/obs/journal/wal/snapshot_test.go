package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// openSnaps opens the snapshot writer over dir for the rest of the test.
func openSnaps(t *testing.T, dir string) (*Snapshots, *Snapshot) {
	t.Helper()
	s, snap, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, snap
}

// writeSnap freezes recs and writes live as the snapshot at seq. It
// returns the bytes the write put in its slot.
func writeSnap(t *testing.T, s *Snapshots, seq uint64, live string, recs ...string) int {
	t.Helper()
	for _, r := range recs {
		s.Freeze([]byte(r))
	}
	n, err := s.Write(seq, []byte(live))
	if err != nil {
		t.Fatalf("writing snapshot %d: %v", seq, err)
	}
	return n
}

// latest is LatestSnapshot, failing the test on an error.
func latest(t *testing.T, dir string) (string, uint64) {
	t.Helper()
	payload, seq, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload), seq
}

// framed is the frozen region holding recs.
func framed(recs ...string) string {
	var ps [][]byte
	for _, r := range recs {
		ps = append(ps, []byte(r))
	}
	return string(frame(ps...))
}

// writeLegacy writes payload as an older build's snapshot at seq.
func writeLegacy(t *testing.T, dir string, seq uint64, payload []byte) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
	if err := os.WriteFile(path, frame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir: want ErrNoSnapshot, got %v", err)
	}
	s, snap := openSnaps(t, dir)
	if snap != nil {
		t.Fatalf("empty dir recovered %+v", snap)
	}
	writeSnap(t, s, 10, `{"a":1}`, "r1")
	writeSnap(t, s, 20, `{"a":2}`, "r2")
	if payload, seq := latest(t, dir); seq != 20 || payload != framed("r1", "r2")+`{"a":2}` {
		t.Fatalf("got seq=%d payload=%q", seq, payload)
	}
	_, snap = openSnaps(t, dir)
	var recs []string
	if err := Records(snap.Frozen, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 20 || string(snap.Live) != `{"a":2}` || !slices.Equal(recs, []string{"r1", "r2"}) {
		t.Fatalf("reopened: seq=%d live=%q records=%q", snap.Seq, snap.Live, recs)
	}
}

// TestSnapshotWritesOnlyWhatChanged: a write puts in its slot the frozen
// records that slot lacks, the live part and the header, and a directory
// holds two slot files however many snapshots it took.
func TestSnapshotWritesOnlyWhatChanged(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSnaps(t, dir)
	live := `{"live":true}`
	rec := func(i int) string { return fmt.Sprintf(`{"rec":%d}`, i) }
	size := func(recs ...int) int {
		n := slotHeaderSize + len(live)
		for _, i := range recs {
			n += frameHeaderSize + len(rec(i))
		}
		return n
	}
	for i, tc := range []struct {
		freeze []int
		want   int
	}{
		{[]int{1}, size(1)},       // slot 0, empty: everything
		{[]int{2}, size(1, 2)},    // slot 1, empty: everything
		{[]int{3}, size(2, 3)},    // slot 0 lacks records 2 and 3
		{nil, size(3)},            // slot 1 lacks record 3
		{nil, size()},             // slot 0 lacks nothing
		{[]int{4, 5}, size(4, 5)}, // slot 1 lacks the new records
	} {
		var recs []string
		for _, r := range tc.freeze {
			recs = append(recs, rec(r))
		}
		if got := writeSnap(t, s, uint64(i+1), live, recs...); got != tc.want {
			t.Errorf("write %d put %d bytes in its slot, want %d", i+1, got, tc.want)
		}
	}
	if payload, seq := latest(t, dir); seq != 6 || payload != framed(rec(1), rec(2), rec(3), rec(4), rec(5))+live {
		t.Fatalf("latest: seq=%d payload=%q", seq, payload)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(dir, slotName(0)), filepath.Join(dir, slotName(1))}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %q, want %q", names, want)
	}
}

// TestSnapshotsOrderedByGeneration: two snapshots at one sequence are
// told apart by their write generation, before and after a restart, and
// a restarted writer overwrites the older slot.
func TestSnapshotsOrderedByGeneration(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSnaps(t, dir)
	writeSnap(t, s, 7, `"first"`)
	writeSnap(t, s, 7, `"second"`)
	if payload, _ := latest(t, dir); payload != `"second"` {
		t.Fatalf("latest of two snapshots at one sequence = %q", payload)
	}
	s.Close()
	s2, snap := openSnaps(t, dir)
	if string(snap.Live) != `"second"` {
		t.Fatalf("reopened writer recovered %q", snap.Live)
	}
	writeSnap(t, s2, 7, `"third"`)
	files, err := readSlotFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lives []string
	for _, data := range files {
		snap, _ := decodeSlot(data)
		lives = append(lives, string(snap.Live))
	}
	if !slices.Contains(lives, `"second"`) || !slices.Contains(lives, `"third"`) {
		t.Fatalf("slots hold %q, want the second and third snapshots", lives)
	}
	if payload, _ := latest(t, dir); payload != `"third"` {
		t.Fatalf("latest after restart = %q", payload)
	}
}

// TestCorruptSnapshotFallsBack: a bit flip in the newest slot makes
// recovery take the previous snapshot from the other slot, and the next
// write rewrites the corrupt slot in full.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSnaps(t, dir)
	writeSnap(t, s, 10, `{"good":true}`, "r1")
	writeSnap(t, s, 20, `{"bad":true}`, "r2")
	s.Close()
	newest := filepath.Join(dir, slotName(1))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x80 // in the live part
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if payload, seq := latest(t, dir); seq != 10 || payload != framed("r1")+`{"good":true}` {
		t.Fatalf("fallback returned seq=%d payload=%q", seq, payload)
	}
	s2, _ := openSnaps(t, dir)
	live := `{"next":true}`
	if n, want := writeSnap(t, s2, 30, live), slotHeaderSize+len(framed("r1"))+len(live); n != want {
		t.Fatalf("write over the corrupt slot put %d bytes, want %d (a full rewrite)", n, want)
	}
	if payload, seq := latest(t, dir); seq != 30 || payload != framed("r1")+live {
		t.Fatalf("after the rewrite: seq=%d payload=%q", seq, payload)
	}
}

func TestAllCorruptSnapshotsIsNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSnaps(t, dir)
	writeSnap(t, s, 10, `{"x":1}`)
	if err := os.WriteFile(filepath.Join(dir, slotName(0)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000009.snap"), []byte("garbage"), 0o644); err != nil {
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
	s, _ := openSnaps(t, dir)
	writeSnap(t, s, 8, `{"world":1}`)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	w, err := open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if recs, _ := w.ReadAll(); len(recs) != 0 {
		t.Fatalf("log reappeared with %d records", len(recs))
	}
	if payload, seq := latest(t, dir); seq != 8 || payload != `{"world":1}` {
		t.Fatalf("snapshot lost: seq=%d payload=%q", seq, payload)
	}
}

// TestOpenRemovesOrphanedSnapshotTemps: an older build wrote each
// snapshot to snap-<seq>.snap through a temp file, which a crash could
// orphan. A directory it left is read from its newest snapshot file
// while no slot is valid. The first slot write deletes those files and
// the orphaned temp file, and leaves unrelated files alone; a snapshot
// file that appears later never shadows a valid slot.
func TestOpenRemovesOrphanedSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	writeTorture(t, dir, 4)
	writeLegacy(t, dir, 2, []byte(`{"world":2}`))
	legacy := writeLegacy(t, dir, 4, []byte(`{"world":4}`))
	orphan := filepath.Join(dir, "snap-1234.tmp")
	keep := filepath.Join(dir, "notes.tmp") // not a snapshot temp file
	for _, name := range []string{orphan, keep} {
		if err := os.WriteFile(name, []byte("\x20\x00\x00\x00torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	s, snap := openSnaps(t, dir)
	if snap == nil || snap.Seq != 4 || string(snap.Live) != `{"world":4}` || len(snap.Frozen) != 0 {
		t.Fatalf("an older build's snapshot recovered as %+v", snap)
	}
	writeSnap(t, s, 5, `{"world":5}`)
	for _, gone := range []string{orphan, legacy} {
		if _, err := os.Stat(gone); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the first slot write: stat err = %v", filepath.Base(gone), err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("the slot write removed an unrelated file: %v", err)
	}
	writeLegacy(t, dir, 99, []byte(`{"world":99}`))
	if payload, seq := latest(t, dir); seq != 5 || payload != `{"world":5}` {
		t.Fatalf("latest snapshot: seq=%d payload=%q", seq, payload)
	}
}

// TestWriteSnapshotSyncsDir: a writer fsyncs the directory once, after
// opening (and perhaps creating) the slot files and before its first
// write into them, so their entries survive a power loss; no later write
// fsyncs the directory. A failed directory fsync is returned, and the
// next write retries it.
func TestWriteSnapshotSyncsDir(t *testing.T) {
	injected := errors.New("injected directory fsync failure")
	fail := true
	calls := stubSyncDir(t, func(int) error {
		if fail {
			return injected
		}
		return nil
	})
	dir := t.TempDir()
	s, _ := openSnaps(t, dir)
	if _, err := s.Write(1, []byte(`{"ok":false}`)); !errors.Is(err, injected) {
		t.Fatalf("Write returned %v, want the injected error", err)
	}
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("a write whose directory fsync failed left a snapshot: %v", err)
	}
	fail = false
	for seq := uint64(2); seq <= 4; seq++ {
		writeSnap(t, s, seq, `{"ok":true}`)
	}
	if *calls != 2 {
		t.Fatalf("%d directory fsyncs, want 2: the failed one and its retry", *calls)
	}
	s.Close()
	s2, _ := openSnaps(t, dir)
	writeSnap(t, s2, 5, `{"ok":true}`)
	writeSnap(t, s2, 6, `{"ok":true}`)
	if *calls != 3 {
		t.Fatalf("a second writer made %d directory fsyncs, want 1", *calls-2)
	}
}

// TestFailedSlotWriteKeepsNewest: a write or fsync that fails is
// returned, leaves the newest slot byte for byte as it was, and the next
// write rewrites the failed slot in full.
func TestFailedSlotWriteKeepsNewest(t *testing.T) {
	injected := errors.New("injected slot fsync failure")
	for _, how := range []string{"write", "fsync"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openSnaps(t, dir)
			writeSnap(t, s, 1, `{"s":1}`, "r1")
			writeSnap(t, s, 2, `{"s":2}`, "r2") // newest, in slot 1
			newest, err := os.ReadFile(filepath.Join(dir, slotName(1)))
			if err != nil {
				t.Fatal(err)
			}
			s.Freeze([]byte("r3"))
			switch how {
			case "write":
				good := s.files[0]
				ro, err := os.Open(good.Name())
				if err != nil {
					t.Fatal(err)
				}
				s.files[0] = ro
				_, err = s.Write(3, []byte(`{"s":3}`))
				ro.Close()
				s.files[0] = good
				if err == nil {
					t.Fatal("a write through a read-only file succeeded")
				}
			case "fsync":
				syncSlot = func(*os.File) error { return injected }
				_, err := s.Write(3, []byte(`{"s":3}`))
				syncSlot = (*os.File).Sync
				if !errors.Is(err, injected) {
					t.Fatalf("Write returned %v, want the injected error", err)
				}
			}
			if after, _ := os.ReadFile(filepath.Join(dir, slotName(1))); !bytes.Equal(after, newest) {
				t.Fatal("a failed write changed the newest slot")
			}
			live := `{"s":4}`
			if n, want := writeSnap(t, s, 4, live), slotHeaderSize+len(framed("r1", "r2", "r3"))+len(live); n != want {
				t.Fatalf("write after the failure put %d bytes, want %d (a full rewrite)", n, want)
			}
			if payload, seq := latest(t, dir); seq != 4 || payload != framed("r1", "r2", "r3")+live {
				t.Fatalf("after the rewrite: seq=%d payload=%q", seq, payload)
			}
		})
	}
}

// TestSnapshotCrashSweep cuts each write of a seeded sequence of
// snapshots short at every byte offset it touched, in two ways: the
// bytes written in order (frozen records, live part, header) up to the
// offset over what the slot held before, and the finished slot file
// truncated at the offset. It also flips one bit in each region of the
// finished slot. Reading the two slots must give exactly the new
// snapshot or the previous one, never none or a mix.
func TestSnapshotCrashSweep(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSnaps(t, dir)
	r := rand.New(rand.NewSource(6))
	randomBytes := func(lo, hi int) []byte {
		b := make([]byte, lo+r.Intn(hi-lo))
		r.Read(b)
		return b
	}
	var prev []byte
	images := 0
	for step := 0; step < 12; step++ {
		for n := r.Intn(3); n > 0; n-- {
			s.Freeze(randomBytes(20, 200))
		}
		live := randomBytes(50, 400)
		before, err := readSlotFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		written, err := s.Write(uint64(step), live)
		if err != nil {
			t.Fatal(err)
		}
		after, err := readSlotFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		payload := append(bytes.Clone(s.Frozen()), live...)
		if prev == nil {
			prev = payload
			continue
		}
		target := 0
		if !bytes.Equal(before[1], after[1]) {
			target = 1
		}
		old, done := before[target], after[target]
		check := func(image []byte, how string) {
			t.Helper()
			images++
			var got []byte
			best := uint64(0)
			for i, data := range [2][]byte{after[0], after[1]} {
				if i == target {
					data = image
				}
				if snap, gen := decodeSlot(data); gen != 0 && (got == nil || gen > best) {
					got, best = slices.Concat(snap.Frozen, snap.Live), gen
				}
			}
			if got == nil {
				t.Fatalf("step %d, %s: no snapshot", step, how)
			}
			if !bytes.Equal(got, payload) && !bytes.Equal(got, prev) {
				t.Fatalf("step %d, %s: read neither the new snapshot nor the previous one", step, how)
			}
		}
		end := slotHeaderSize + len(payload)
		var touched []int // the write's offsets, in the order it writes them
		for at := end - (written - slotHeaderSize); at < end; at++ {
			touched = append(touched, at)
		}
		for at := 0; at < slotHeaderSize; at++ {
			touched = append(touched, at)
		}
		partial := make([]byte, max(len(old), len(done)))
		copy(partial, old)
		for _, at := range touched {
			check(partial, fmt.Sprintf("written up to offset %d", at))
			partial[at] = done[at]
			check(done[:at], fmt.Sprintf("truncated at offset %d", at))
		}
		check(partial, "written whole")
		for region, at := range map[string]int{
			"header": 20, "frozen region": slotHeaderSize + len(s.Frozen())/2, "live part": end - 1,
		} {
			flipped := bytes.Clone(done)
			flipped[at] ^= 0x10
			check(flipped, "bit flip in the "+region)
		}
		prev = payload
	}
	t.Logf("%d crash images", images)
}

// readSlotFiles reads the two slot files of dir; a missing one reads
// empty.
func readSlotFiles(dir string) ([2][]byte, error) {
	var files [2][]byte
	for i := range files {
		data, err := os.ReadFile(filepath.Join(dir, slotName(i)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return files, err
		}
		files[i] = data
	}
	return files, nil
}
