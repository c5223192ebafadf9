package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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

// FuzzLatestSnapshot reads an arbitrary snapshot file. The result must be
// ErrNoSnapshot exactly when the bytes are not one well-formed frame, and
// otherwise the frame's payload, whose length and CRC match its header.
func FuzzLatestSnapshot(f *testing.F) {
	valid := frame([]byte(`{"world":1}`))
	flipped := append([]byte(nil), valid...)
	flipped[frameHeaderSize] ^= 0x01
	f.Add([]byte{})
	f.Add(valid)
	f.Add(flipped)
	f.Add(valid[:len(valid)-1])
	f.Add(append(valid, 0))
	f.Add(frame(nil))
	// One directory for every input: each holds at most this one file,
	// which the next input overwrites, and skipping a fresh directory per
	// input keeps minimization fast.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		wellFormed := len(data) >= frameHeaderSize &&
			int(binary.LittleEndian.Uint32(data[0:4])) == len(data)-frameHeaderSize &&
			crc32.Checksum(data[frameHeaderSize:], castagnoli) == binary.LittleEndian.Uint32(data[4:8])
		payload, seq, err := LatestSnapshot(dir)
		switch {
		case errors.Is(err, ErrNoSnapshot):
			if wellFormed {
				t.Fatal("a well-formed snapshot was rejected")
			}
		case err != nil:
			t.Fatalf("LatestSnapshot: %v", err)
		case !wellFormed:
			t.Fatalf("a malformed snapshot was accepted: payload %q", payload)
		case seq != 1 || !bytes.Equal(payload, data[frameHeaderSize:]):
			t.Fatalf("got seq %d payload %q, want seq 1 payload %q", seq, payload, data[frameHeaderSize:])
		}
	})
}
