package journal

import (
	"testing"
)

// BenchmarkJournalAppend is the flight recorder's hot path. Its
// zero-alloc steady state is pinned by TestAppendZeroAlloc, with and
// without a sink.
func BenchmarkJournalAppend(b *testing.B) {
	j := New(1<<14, Deterministic())
	e := Event{Source: "controller", Trace: "t-1", Job: "job-1", Type: JobStatus, At: 1}
	j.Append(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(e)
	}
}

// BenchmarkJournalAppendParallel measures lock contention under many
// concurrent emitters.
func BenchmarkJournalAppendParallel(b *testing.B) {
	j := New(1<<14, Deterministic())
	e := Event{Source: "controller", Trace: "t-1", Job: "job-1", Type: JobStatus, At: 1}
	j.Append(e)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j.Append(e)
		}
	})
}

// BenchmarkAppendJSONL measures the canonical encoder with a reused
// buffer, the sink fast path.
func BenchmarkAppendJSONL(b *testing.B) {
	e := Event{
		Seq: 42, Source: "controller", SourceSeq: 7,
		Trace: "t-000001", Job: "job-1",
		Type: SegmentStart, At: 123.456,
		Fields: []Field{Fint("start_iter", 500), Fint("remaining", 340)},
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendJSONL(buf[:0], e)
	}
}
