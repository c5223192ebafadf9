package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// frame encodes payloads as consecutive WAL frames, the bytes Append
// writes.
func frame(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		out = append(append(out, hdr[:]...), p...)
	}
	return out
}

// segmentSizes maps each segment file in dir to its size.
func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, s := range segs {
		info, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		sizes[filepath.Base(s)] = info.Size()
	}
	return sizes
}

// FuzzWALRecover recovers a log from two arbitrary segment files. Open
// must not panic or fail, recovery must be idempotent (a second Open
// truncates and removes nothing and reads the same records), and a record
// appended after recovery must read back after the recovered ones.
func FuzzWALRecover(f *testing.F) {
	valid := frame([]byte(`{"seq":1}`+"\n"), []byte(`{"seq":2}`+"\n"))
	f.Add([]byte{}, []byte{})
	f.Add(valid, []byte{})
	f.Add(valid, valid)
	f.Add(valid[:len(valid)-3], valid)
	f.Add([]byte("not a frame"), valid)
	f.Add(valid, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(seg2) > 0 {
			if err := os.WriteFile(filepath.Join(dir, segmentName(2)), seg2, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := options{NoSync: true}
		w, err := open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		recovered, err := w.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sizes := segmentSizes(t, dir)

		w, err = open(dir, opts)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer w.Close()
		if again := segmentSizes(t, dir); len(again) != len(sizes) {
			t.Fatalf("second Open changed the segments: %v -> %v", sizes, again)
		} else {
			for name, n := range sizes {
				if again[name] != n {
					t.Fatalf("second Open changed the segments: %v -> %v", sizes, again)
				}
			}
		}
		got, err := w.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		assertRecords(t, got, recovered)

		rec := []byte(`{"seq":"after recovery"}` + "\n")
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		got, err = w.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		assertRecords(t, got, append(recovered, rec))
	})
}

// FuzzLatestSnapshot reads a state directory whose two slot files and
// one older build's snapshot file hold arbitrary bytes. It must not
// panic, and what it returns must be what a reference reading of the
// three files, recomputing every CRC, picks: the payload of a valid slot
// of the highest generation; with no valid slot, the payload of a valid
// older snapshot file; and otherwise ErrNoSnapshot.
func FuzzLatestSnapshot(f *testing.F) {
	seedDir := f.TempDir()
	s, _, err := OpenSnapshots(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	s.Freeze([]byte(`j{"id":"job-1"}`))
	if _, err := s.Write(1, []byte(`{"world":1}`)); err != nil {
		f.Fatal(err)
	}
	s.Freeze([]byte(`i{"id":"i-1"}`))
	if _, err := s.Write(2, []byte(`{"world":2}`)); err != nil {
		f.Fatal(err)
	}
	s.Close()
	var slots [2][]byte
	for i := range slots {
		if slots[i], err = os.ReadFile(filepath.Join(seedDir, slotName(i))); err != nil {
			f.Fatal(err)
		}
	}
	legacy := frame([]byte(`{"world":0}`))
	flip := func(b []byte, at int) []byte {
		b = bytes.Clone(b)
		b[at] ^= 0x01
		return b
	}
	f.Add(slots[0], slots[1], legacy)
	f.Add(slots[0], flip(slots[1], len(slots[1])-1), legacy)             // torn live part
	f.Add(slots[0], flip(slots[1], slotHeaderSize+1), legacy)            // torn frozen region
	f.Add(flip(slots[0], 17), slots[1][:len(slots[1])-1], legacy)        // torn header, truncated slot
	f.Add([]byte{}, []byte{}, legacy)                                    // older build only
	f.Add(slots[1], slots[1], flip(legacy, frameHeaderSize))             // one generation twice
	f.Add(append(bytes.Clone(slots[0]), 0), []byte("garbage"), []byte{}) // trailing bytes
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, slot0, slot1, old []byte) {
		for name, data := range map[string][]byte{
			slotName(0): slot0, slotName(1): slot1, "snap-0000000000000001.snap": old,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var want [][]byte
		best := uint64(0)
		for _, data := range [][]byte{slot0, slot1} {
			payload, gen, ok := referenceSlot(data)
			switch {
			case !ok || (len(want) > 0 && gen < best):
			case len(want) > 0 && gen == best:
				want = append(want, payload)
			default:
				want, best = [][]byte{payload}, gen
			}
		}
		wellFormed := len(old) > frameHeaderSize &&
			int(binary.LittleEndian.Uint32(old[0:4])) == len(old)-frameHeaderSize &&
			crc32.Checksum(old[frameHeaderSize:], castagnoli) == binary.LittleEndian.Uint32(old[4:8])
		if len(want) == 0 && wellFormed {
			want = [][]byte{old[frameHeaderSize:]}
		}
		payload, _, err := LatestSnapshot(dir)
		switch {
		case errors.Is(err, ErrNoSnapshot):
			if len(want) > 0 {
				t.Fatalf("a valid snapshot was rejected; want %q", want)
			}
		case err != nil:
			t.Fatalf("LatestSnapshot: %v", err)
		case !slices.ContainsFunc(want, func(w []byte) bool { return bytes.Equal(w, payload) }):
			t.Fatalf("returned payload %q, want one of %q", payload, want)
		}
	})
}

// referenceSlot reads a slot file as its layout describes it: every
// field at its offset, every CRC recomputed, including each frozen
// record's. It returns the frozen region and live part as one payload.
func referenceSlot(data []byte) (payload []byte, gen uint64, ok bool) {
	le := binary.LittleEndian
	if len(data) < 48 || string(data[:4]) != "CYSS" || le.Uint32(data[4:]) != 1 ||
		crc32.Checksum(data[:44], castagnoli) != le.Uint32(data[44:]) {
		return nil, 0, false
	}
	frozenLen, liveLen := le.Uint64(data[24:]), uint64(le.Uint32(data[36:]))
	if frozenLen > uint64(len(data)-48) || liveLen > uint64(len(data)-48)-frozenLen {
		return nil, 0, false
	}
	frozen, live := data[48:48+frozenLen], data[48+frozenLen:48+frozenLen+liveLen]
	if crc32.Checksum(frozen, castagnoli) != le.Uint32(data[32:]) ||
		crc32.Checksum(live, castagnoli) != le.Uint32(data[40:]) {
		return nil, 0, false
	}
	for rest := frozen; len(rest) > 0; {
		if len(rest) < 8 {
			return nil, 0, false
		}
		n := uint64(le.Uint32(rest))
		if n == 0 || 8+n > uint64(len(rest)) || crc32.Checksum(rest[8:8+n], castagnoli) != le.Uint32(rest[4:]) {
			return nil, 0, false
		}
		rest = rest[8+n:]
	}
	gen = le.Uint64(data[16:])
	return data[48 : 48+frozenLen+liveLen], gen, gen != 0 // no write has generation 0
}
