package wal

import (
	"fmt"
	"testing"
)

// TestAppendSteadyStateZeroAlloc pins the hot-path guarantee: once the
// scratch buffer has grown to fit the record size, Append allocates
// nothing, with or without fsync. The flight recorder calls this on every
// journal event, so an allocation here is a per-event GC tax on the whole
// control plane. The fsync case syncs on every append, so an allocation
// on the sync path cannot be averaged away.
func TestAppendSteadyStateZeroAlloc(t *testing.T) {
	rec := []byte(`{"seq":1,"src":"ctl","sseq":1,"type":"bench.event","at":1.5,"fields":{"k":"v"}}` + "\n")
	for _, tc := range []struct {
		name string
		opts options
	}{
		{"NoSync", options{SegmentBytes: 1 << 30, NoSync: true}},
		{"SyncEvery=1", options{SegmentBytes: 1 << 30, SyncEvery: 1}},
	} {
		w, err := open(t.TempDir(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil { // warm the scratch buffer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state Append allocates %.1f times per record, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkAppend measures the pure framed-append path (no fsync), the
// cost every journal event pays before the ring can evict it.
func BenchmarkAppend(b *testing.B) {
	w, err := open(b.TempDir(), options{SegmentBytes: 1 << 30, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := []byte(`{"seq":1,"src":"ctl","sseq":1,"type":"bench.event","at":1.5,"fields":{"k":"v"}}` + "\n")
	b.SetBytes(int64(frameHeaderSize + len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFsyncBatched measures the append path with real fsync
// at varying batch sizes — the knob that trades durability window for
// throughput. SyncEvery=1 is the worst case (one disk barrier per
// event); larger batches amortize it.
func BenchmarkAppendFsyncBatched(b *testing.B) {
	rec := []byte(`{"seq":1,"src":"ctl","sseq":1,"type":"bench.event","at":1.5,"fields":{"k":"v"}}` + "\n")
	for _, every := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("syncEvery=%d", every), func(b *testing.B) {
			w, err := open(b.TempDir(), options{SegmentBytes: 1 << 30, SyncEvery: every})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(frameHeaderSize + len(rec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
