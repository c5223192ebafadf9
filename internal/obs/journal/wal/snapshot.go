package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// The frozen region only grows. A write goes to the slot that does not
// hold the newest snapshot: it appends the frozen records that slot
// lacks, then the live part, then the header, and runs one fsync. A torn
// write fails the torn slot's CRCs and leaves the other slot, with the
// previous snapshot, intact. Slots are ordered by write generation, as
// two snapshots can share a sequence.

// ErrNoSnapshot reports that the state directory has no usable snapshot;
// recovery must replay the log from genesis.
var ErrNoSnapshot = errors.New("wal: no usable snapshot")

const (
	slotMagic      = "CYSS"
	slotVersion    = 1
	slotHeaderSize = 48
)

func slotName(i int) string { return fmt.Sprintf("slot-%d.snap", i) }

// Snapshot is one recovered snapshot. Frozen is empty in a snapshot an
// older build wrote, whose whole payload is Live.
type Snapshot struct {
	Seq    uint64
	Frozen []byte // framed records, in the order they froze
	Live   []byte
}

// decodeSlot checks and splits the contents of a slot file. It returns
// generation 0 for a slot that is not valid.
func decodeSlot(data []byte) (Snapshot, uint64) {
	le := binary.LittleEndian
	if len(data) < slotHeaderSize || string(data[:4]) != slotMagic || le.Uint32(data[4:]) != slotVersion ||
		crc32.Checksum(data[:44], castagnoli) != le.Uint32(data[44:]) {
		return Snapshot{}, 0
	}
	body := data[slotHeaderSize:]
	frozenLen, liveLen := le.Uint64(data[24:]), uint64(le.Uint32(data[36:]))
	if frozenLen > uint64(len(body)) || liveLen > uint64(len(body))-frozenLen {
		return Snapshot{}, 0
	}
	snap := Snapshot{Seq: le.Uint64(data[8:]), Frozen: body[:frozenLen], Live: body[frozenLen : frozenLen+liveLen]}
	if crc32.Checksum(snap.Frozen, castagnoli) != le.Uint32(data[32:]) ||
		crc32.Checksum(snap.Live, castagnoli) != le.Uint32(data[40:]) ||
		Records(snap.Frozen, func([]byte) error { return nil }) != nil {
		return Snapshot{}, 0
	}
	return snap, le.Uint64(data[16:])
}

// Records calls fn with each record of a frozen region, in order. A
// region that is not a sequence of well-formed frames is an error.
func Records(frozen []byte, fn func(rec []byte) error) error {
	for len(frozen) > 0 {
		if len(frozen) < frameHeaderSize {
			return errors.New("wal: torn frame in frozen region")
		}
		n := binary.LittleEndian.Uint32(frozen)
		if n == 0 || uint64(n) > uint64(len(frozen)-frameHeaderSize) ||
			crc32.Checksum(frozen[frameHeaderSize:frameHeaderSize+n], castagnoli) != binary.LittleEndian.Uint32(frozen[4:]) {
			return errors.New("wal: bad frame in frozen region")
		}
		if err := fn(frozen[frameHeaderSize : frameHeaderSize+n]); err != nil {
			return err
		}
		frozen = frozen[frameHeaderSize+n:]
	}
	return nil
}

// latestLegacy returns the newest valid snapshot an older build wrote.
func latestLegacy(dir string) *Snapshot {
	// Glob sorts, and the fixed-width hex sequence sorts as a number.
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for i := len(names) - 1; i >= 0; i-- {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(names[i]), "snap-%016x.snap", &seq); err != nil {
			continue
		}
		data, _ := os.ReadFile(names[i])
		if len(data) > frameHeaderSize && int(binary.LittleEndian.Uint32(data)) == len(data)-frameHeaderSize &&
			Records(data, func([]byte) error { return nil }) == nil {
			return &Snapshot{Seq: seq, Live: data[frameHeaderSize:]}
		}
	}
	return nil
}

// LatestSnapshot returns the newest valid snapshot in dir, its frozen
// region followed by its live part, and its journal sequence; with none
// in the slots or in older builds' files it returns ErrNoSnapshot.
func LatestSnapshot(dir string) (payload []byte, seq uint64, err error) {
	_, snap, err := OpenSnapshots(dir)
	if err != nil {
		return nil, 0, err
	}
	if snap == nil {
		return nil, 0, ErrNoSnapshot
	}
	return slices.Concat(snap.Frozen, snap.Live), snap.Seq, nil
}

// Snapshots writes a state directory's snapshot slots, keeping the frozen
// region in memory. It is not safe for concurrent use.
type Snapshots struct {
	dir       string
	files     [2]*os.File // opened at the first Write and kept open
	dirSynced bool        // the directory was fsynced after opening files
	legacy    bool        // older builds' files may remain
	frozen    []byte      // the frozen region every slot converges to
	crc       uint32      // CRC32-C of frozen
	have      [2]int      // bytes of frozen each slot holds intact; 0 rewrites it in full
	gen       [2]uint64   // generation of each slot's valid snapshot, 0 for none
	last      uint64      // highest generation written or read
}

// OpenSnapshots reads the snapshot slots of dir, which need not exist,
// and returns a writer for them with the newest valid snapshot, or nil
// when there is none. Nothing is written until the first Write.
func OpenSnapshots(dir string) (*Snapshots, *Snapshot, error) {
	s := &Snapshots{dir: dir, legacy: true}
	var snaps [2]Snapshot
	newest := -1
	for i := range snaps {
		data, err := os.ReadFile(filepath.Join(dir, slotName(i)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		snaps[i], s.gen[i] = decodeSlot(data)
		s.last = max(s.last, s.gen[i])
		if s.gen[i] != 0 && (newest < 0 || s.gen[i] > s.gen[newest]) {
			newest = i
		}
	}
	if newest < 0 {
		return s, latestLegacy(dir), nil
	}
	// Clipped, so a Freeze copies instead of writing over the live part.
	// The other slot is rewritten in full at its first write.
	s.frozen = slices.Clip(snaps[newest].Frozen)
	s.crc, s.have[newest] = crc32.Checksum(s.frozen, castagnoli), len(s.frozen)
	return s, &snaps[newest], nil
}

// Frozen returns the frozen region the next Write writes, read-only.
func (s *Snapshots) Frozen() []byte { return s.frozen }

// Freeze appends a copy of rec to the frozen region.
func (s *Snapshots) Freeze(rec []byte) {
	start := len(s.frozen)
	s.frozen = binary.LittleEndian.AppendUint32(s.frozen, uint32(len(rec)))
	s.frozen = binary.LittleEndian.AppendUint32(s.frozen, crc32.Checksum(rec, castagnoli))
	s.frozen = append(s.frozen, rec...)
	s.crc = crc32.Update(s.crc, castagnoli, s.frozen[start:])
}

// Write durably writes the frozen region and live as the snapshot at
// journal sequence seq, and returns the bytes it wrote. A slot whose
// write failed is rewritten in full next time.
func (s *Snapshots) Write(seq uint64, live []byte) (int, error) {
	t := 0
	if s.gen[0] > s.gen[1] {
		t = 1
	}
	if err := s.openFiles(); err != nil {
		return 0, err
	}
	from := s.have[t]
	s.have[t], s.gen[t] = 0, 0
	s.last++
	le := binary.LittleEndian
	hdr := append(make([]byte, 0, slotHeaderSize), slotMagic...)
	hdr = le.AppendUint32(hdr, slotVersion)
	hdr = le.AppendUint64(hdr, seq)
	hdr = le.AppendUint64(hdr, s.last)
	hdr = le.AppendUint64(hdr, uint64(len(s.frozen)))
	hdr = le.AppendUint32(hdr, s.crc)
	hdr = le.AppendUint32(hdr, uint32(len(live)))
	hdr = le.AppendUint32(hdr, crc32.Checksum(live, castagnoli))
	hdr = le.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))

	f, tail := s.files[t], s.frozen[from:]
	_, err := f.WriteAt(tail, int64(slotHeaderSize+from))
	if err == nil {
		_, err = f.WriteAt(live, int64(slotHeaderSize+len(s.frozen)))
	}
	if err == nil {
		_, err = f.WriteAt(hdr, 0)
	}
	if err == nil {
		err = syncSlot(f)
	}
	if err != nil {
		return 0, fmt.Errorf("wal: writing snapshot %d to %s: %w", seq, slotName(t), err)
	}
	s.have[t], s.gen[t] = len(s.frozen), s.last
	if s.legacy {
		// A valid slot shadows them for good: a leftover wastes disk only.
		for _, pattern := range []string{"snap-*.snap", "snap-*.tmp"} {
			names, _ := filepath.Glob(filepath.Join(s.dir, pattern))
			for _, name := range names {
				os.Remove(name)
			}
		}
		s.legacy = false
	}
	return len(tail) + len(live) + slotHeaderSize, nil
}

// openFiles opens (creating) both slot files and fsyncs the directory
// once, so a created file's entry survives a power loss.
func (s *Snapshots) openFiles() error {
	if s.dirSynced {
		return nil
	}
	for i, f := range s.files {
		if f == nil {
			var err error
			if s.files[i], err = os.OpenFile(filepath.Join(s.dir, slotName(i)), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("wal: directory fsync after opening snapshot slots: %w", err)
	}
	s.dirSynced = true
	return nil
}

// syncSlot fsyncs a slot file. Tests replace it to inject failures.
var syncSlot = (*os.File).Sync

// Close closes the slot files.
func (s *Snapshots) Close() error {
	var errs []error
	for _, f := range s.files {
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	s.files, s.dirSynced = [2]*os.File{}, false
	return errors.Join(errs...)
}
