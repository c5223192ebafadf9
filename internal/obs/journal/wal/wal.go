// Package wal is the durable sink behind the flight recorder: a
// segmented, append-only write-ahead log of canonical journal JSONL
// lines, plus state snapshots in two slot files rewritten in place.
// Together they make the control plane crash-durable: every journal
// event is CRC-framed and fsynced (batched) to disk before the ring can
// evict it, and a restart rebuilds the world from the newest valid
// snapshot plus the log tail.
//
// On-disk layout of a state directory:
//
//	wal-00000001.log   framed records, oldest segment
//	wal-00000002.log   ... newest segment (actively appended)
//	slot-0.snap        snapshot slots: the newest snapshot and the one
//	slot-1.snap        before it
//
// Each record is framed as an 8-byte header — 4-byte little-endian
// payload length, 4-byte CRC32-C (Castagnoli) of the payload — followed
// by the payload itself (one JSONL line). Recovery scans segments in
// order and truncates at the first bad frame: a torn final record, a
// truncated segment, or a bit flip anywhere invalidates that frame and
// everything after it, which is exactly the prefix-durability a WAL
// promises.
//
// A slot file is a 48-byte little-endian header (magic "CYSS", version,
// journal sequence, write generation, the frozen region's 8-byte length
// and CRC32-C, the live part's length and CRC32-C, a CRC32-C of the
// header's first 44 bytes), then the frozen region, records that never
// change again framed like WAL records in the order they froze, then the
// live part, the rest of the world. Bytes after the live part are left
// from a longer earlier write. Older builds wrote each snapshot as one
// frame in snap-<seq>.snap, through a temp file snap-*.tmp; such a file
// is read only while no slot is valid, and the first slot write deletes
// them.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cynthia/internal/obs"
)

// frameHeaderSize is the per-record framing overhead: 4 bytes payload
// length + 4 bytes CRC32-C of the payload, both little-endian.
const frameHeaderSize = 8

// maxRecordBytes bounds a single record so recovery never trusts a
// corrupted length field into a giant allocation.
const maxRecordBytes = 16 << 20

// castagnoli is the CRC32-C table (the iSCSI polynomial, hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// options tunes a WAL. Production logs take the zero value (the
// defaults); the package's own tests and benchmarks set the fields.
type options struct {
	// SegmentBytes rotates to a new segment file once the active one
	// exceeds this size (default 4 MiB). Rotation happens between
	// records; records never span segments.
	SegmentBytes int64
	// SyncEvery fsyncs the active segment every Nth append (default 64;
	// 1 = fsync every record). Sync and Close always flush regardless.
	SyncEvery int
	// NoSync disables fsync entirely (tests and benchmarks of the pure
	// append path).
	NoSync bool
}

func (o options) withDefaults() options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	return o
}

// WAL is a segmented append-only log of framed records. All methods are
// safe for concurrent use. WAL implements io.Writer so it can be handed
// to journal.WithSink directly: each Write call must carry exactly one
// complete record (the journal writes one canonical JSONL line per
// append, under its own lock).
type WAL struct {
	dir  string
	opts options

	mu       sync.Mutex
	f        *os.File
	segIndex int   // index of the active segment
	segSize  int64 // bytes in the active segment
	unsynced int   // appends since the last fsync
	scratch  []byte
	closed   bool
	// err is the first failed segment write or fsync. It is sticky: a
	// failed write can leave a hole or a torn frame (recovery truncates
	// there and drops every later record), and the records a failed fsync
	// covered may never reach stable storage. A retry cannot tell, so
	// every later Append and Sync returns it.
	err error
}

// segmentName formats the file name of segment i.
func segmentName(i int) string { return fmt.Sprintf("wal-%08d.log", i) }

// Open recovers the log in dir (creating the directory if needed) and
// prepares it for appending. Recovery scans every segment in order,
// truncates the log at the first bad frame, and deletes any later
// segments — everything before the bad frame stays readable, everything
// after it is discarded as never-durable.
func Open(dir string) (*WAL, error) { return open(dir, options{}) }

func open(dir string, opts options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, opts: opts.withDefaults()}
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}

// segments lists the segment indices present in dir, sorted ascending.
func (w *WAL) segments() ([]int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var idx []int
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &i); err == nil {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// recover scans the existing segments, truncating at the first bad frame
// and deleting every later segment, then opens the active segment for
// appending.
func (w *WAL) recover() error {
	idx, err := w.segments()
	if err != nil {
		return err
	}
	if len(idx) == 0 {
		return w.openSegment(1)
	}
	for pos, i := range idx {
		valid, total, err := scanSegment(filepath.Join(w.dir, segmentName(i)), nil)
		if err != nil {
			return err
		}
		if valid == total {
			continue
		}
		// Bad frame: everything from here on was never durably written.
		// Truncate this segment at the last valid frame and drop the rest.
		if err := os.Truncate(filepath.Join(w.dir, segmentName(i)), valid); err != nil {
			return fmt.Errorf("wal: truncating %s: %w", segmentName(i), err)
		}
		for _, later := range idx[pos+1:] {
			if err := os.Remove(filepath.Join(w.dir, segmentName(later))); err != nil {
				return fmt.Errorf("wal: removing %s: %w", segmentName(later), err)
			}
		}
		idx = idx[:pos+1]
		break
	}
	return w.openSegment(idx[len(idx)-1])
}

// openSegment opens (or creates) segment i for appending and makes it
// the active segment. It then fsyncs the directory: a new segment's
// directory entry, like the truncations and removals recovery just made,
// is durable only once the directory is, and records synced into a
// segment whose entry a power loss drops are lost with it. A failed
// directory fsync is sticky, like a failed segment fsync.
func (w *WAL) openSegment(i int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.segIndex, w.segSize = f, i, info.Size()
	if w.opts.NoSync {
		return nil
	}
	if err := syncDir(w.dir); err != nil {
		w.err = fmt.Errorf("wal: directory fsync failed, log no longer durable: %w", err)
		return w.err
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable. Tests replace it to count calls and inject
// failures.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanSegment walks the frames of one segment file. It returns the byte
// offset just past the last valid frame and the file size; the two are
// equal iff every frame checks out. When visit is non-nil it is called
// with each valid payload (the slice is freshly allocated per record).
func scanSegment(path string, visit func([]byte) error) (valid, total int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	total = info.Size()
	var hdr [frameHeaderSize]byte
	for valid < total {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return valid, total, nil // torn header: truncate here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordBytes || valid+frameHeaderSize+int64(n) > total {
			return valid, total, nil // implausible length or torn payload
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return valid, total, nil
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return valid, total, nil // bit flip: truncate here
		}
		if visit != nil {
			if err := visit(payload); err != nil {
				return valid, total, err
			}
		}
		valid += frameHeaderSize + int64(n)
	}
	return valid, total, nil
}

// Append frames one record and writes it to the active segment, rotating
// and fsyncing per the options. The payload is not retained. Steady-state
// appends do not allocate.
func (w *WAL) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("wal: empty record")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", len(payload), maxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: closed")
	}
	if w.err != nil {
		return w.err
	}
	if w.segSize >= w.opts.SegmentBytes && w.segSize > 0 {
		if err := w.syncLocked(); err != nil {
			return err
		}
		if err := w.openSegment(w.segIndex + 1); err != nil {
			return err
		}
	}
	// One frame, one Write: header and payload go out together so a crash
	// can tear at most the final record.
	need := frameHeaderSize + len(payload)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, 0, need*2)
	}
	buf := w.scratch[:frameHeaderSize]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("wal: write failed, log no longer durable: %w", err)
		return w.err
	}
	w.scratch = buf[:0]
	w.segSize += int64(need)
	w.unsynced++
	if !w.opts.NoSync && w.unsynced >= w.opts.SyncEvery {
		return w.syncLocked()
	}
	return nil
}

// Write implements io.Writer over Append, so a WAL can be a journal sink.
// Each call must carry exactly one complete record.
func (w *WAL) Write(p []byte) (int, error) {
	if err := w.Append(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Sync flushes the active segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: closed")
	}
	return w.syncLocked()
}

// syncLocked fsyncs the active segment if any append is unsynced. The
// unsynced count is cleared only after a successful fsync; a failure is
// recorded in err and returned from then on.
func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.unsynced == 0 || w.opts.NoSync {
		w.unsynced = 0
		return nil
	}
	start := time.Now()
	err := w.f.Sync()
	fsyncSeconds().Observe(time.Since(start).Seconds())
	if err != nil {
		w.err = fmt.Errorf("wal: fsync failed, log no longer durable: %w", err)
		return w.err
	}
	w.unsynced = 0
	return nil
}

// fsyncBuckets span a fast local disk's fsync to a stalled network disk's.
var fsyncBuckets = []float64{.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .1, 1}

var fsyncSeconds = sync.OnceValue(func() *obs.Histogram {
	return obs.Default().Histogram("cynthia_wal_fsync_seconds",
		"wall time of one WAL segment fsync", fsyncBuckets)
})

// ReadAll returns every durable record across all segments, in append
// order. It re-reads from disk, so it also sees records written before
// this process opened the log.
func (w *WAL) ReadAll() ([][]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return ReadDir(w.dir)
}

// Close flushes and closes the active segment. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.closed = true
	return err
}

// ReadDir returns every durable record in dir without opening the log
// for appending (no recovery truncation happens; scanning still stops at
// the first bad frame of each segment).
func ReadDir(dir string) ([][]byte, error) {
	w := &WAL{dir: dir}
	idx, err := w.segments()
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out [][]byte
	for pos, i := range idx {
		valid, total, err := scanSegment(filepath.Join(dir, segmentName(i)), func(p []byte) error {
			out = append(out, p)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valid != total && pos < len(idx)-1 {
			break // a bad frame invalidates every later segment too
		}
	}
	return out, nil
}
