package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestAppendAssignsSequences(t *testing.T) {
	j := New(16, Deterministic())
	j.Append(Event{Source: "a", Type: JobSubmitted, At: 1})
	j.Append(Event{Source: "b", Type: PlanSearchStart, At: 2})
	j.Append(Event{Source: "a", Type: JobFinished, At: 3})

	events := j.Since(0)
	if len(events) != 3 {
		t.Fatalf("len = %d, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.WallNs != 0 {
			t.Errorf("deterministic journal stamped WallNs = %d", e.WallNs)
		}
	}
	if events[0].SourceSeq != 1 || events[2].SourceSeq != 2 {
		t.Errorf("source a seqs = %d,%d, want 1,2", events[0].SourceSeq, events[2].SourceSeq)
	}
	if events[1].SourceSeq != 1 {
		t.Errorf("source b seq = %d, want 1", events[1].SourceSeq)
	}
	if j.LastSeq() != 3 || len(j.Since(0)) != 3 {
		t.Errorf("LastSeq/Len = %d/%d, want 3/3", j.LastSeq(), len(j.Since(0)))
	}
}

func TestWallClockStampedByDefault(t *testing.T) {
	j := New(4)
	j.Append(Event{Source: "a", Type: JobSubmitted})
	if e := j.Since(0)[0]; e.WallNs == 0 {
		t.Error("default journal did not stamp WallNs")
	}
}

func TestRingEviction(t *testing.T) {
	j := New(4, Deterministic())
	for i := 0; i < 10; i++ {
		j.Append(Event{Source: "s", Type: JobStatus, At: float64(i)})
	}
	events := j.Since(0)
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if j.LastSeq() != 10 {
		t.Errorf("LastSeq = %d, want 10", j.LastSeq())
	}
}

func TestSinceAndJobEvents(t *testing.T) {
	j := New(16, Deterministic())
	j.Append(Event{Source: "a", Job: "job-1", Type: JobSubmitted})
	j.Append(Event{Source: "a", Job: "job-2", Type: JobSubmitted})
	j.Append(Event{Source: "a", Job: "job-1", Type: JobFinished})

	if got := j.Since(1); len(got) != 2 || got[0].Seq != 2 {
		t.Errorf("Since(1) = %+v", got)
	}
	got := j.JobEvents("job-1")
	if len(got) != 2 || got[0].Type != JobSubmitted || got[1].Type != JobFinished {
		t.Errorf("JobEvents = %+v", got)
	}
}

// TestCanonicalEncoding pins the exact JSONL bytes: fixed key order,
// omitted empties, escaped strings, shortest-round-trip floats.
func TestCanonicalEncoding(t *testing.T) {
	e := Event{
		Seq: 7, Source: "controller", SourceSeq: 3,
		Trace: "t-000001", Job: "job-1",
		Type: SegmentStart, At: 12.5,
		Fields: []Field{Fint("start_iter", 0), F("note", "a\"b\\c\nd")},
	}
	got := string(AppendJSONL(nil, e))
	want := `{"seq":7,"src":"controller","sseq":3,"trace":"t-000001","job":"job-1",` +
		`"type":"segment.start","at":12.5,"fields":{"start_iter":"0","note":"a\"b\\c\nd"}}` + "\n"
	if got != want {
		t.Errorf("encoding mismatch:\n got %q\nwant %q", got, want)
	}
	// The canonical line must be valid JSON.
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("canonical line is not valid JSON: %v", err)
	}
	if m["seq"].(float64) != 7 || m["fields"].(map[string]any)["note"] != "a\"b\\c\nd" {
		t.Errorf("round-trip mismatch: %v", m)
	}
	// Minimal event: empties omitted, wall omitted when zero.
	minimal := string(AppendJSONL(nil, Event{Seq: 1, Source: "s", SourceSeq: 1, Type: JobStatus}))
	if minimal != `{"seq":1,"src":"s","sseq":1,"type":"job.status","at":0}`+"\n" {
		t.Errorf("minimal encoding = %q", minimal)
	}
	// Control characters take the \u00XX path.
	if got := string(AppendJSONL(nil, Event{Seq: 1, Source: "\x01", SourceSeq: 1, Type: "t"})); !strings.Contains(got, `\u0001`) {
		t.Errorf("control escape missing: %q", got)
	}
}

// TestDeterministicReplay proves the byte-identity contract: two journals
// fed the same events produce identical JSONL output.
func TestDeterministicReplay(t *testing.T) {
	run := func() []byte {
		j := New(64, Deterministic())
		b := Bind(j, "controller", "t-1", "job-1")
		emitAt(b, 0, JobSubmitted, F("workload", "mnist"))
		emitAt(b, 1.25, PlanChosen, Fint("workers", 8), Ffloat("cost_usd", 0.123456789))
		emitAt(b.WithSource("cloud"), 2.5, InstanceLaunched, F("id", "i-00000001"))
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("replays diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

func TestSinkReceivesEvictedEvents(t *testing.T) {
	var sink bytes.Buffer
	j := New(2, Deterministic(), WithSink(&sink))
	for i := 0; i < 5; i++ {
		j.Append(Event{Source: "s", Type: JobStatus, At: float64(i)})
	}
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink has %d lines, want 5 (ring only retains %d)", len(lines), len(j.Since(0)))
	}
	if !strings.Contains(lines[0], `"seq":1`) || !strings.Contains(lines[4], `"seq":5`) {
		t.Errorf("sink lines = %v", lines)
	}
}

func TestBindingNilSafe(t *testing.T) {
	var b Binding
	if b.Enabled() {
		t.Error("zero binding reports enabled")
	}
	if seq := b.Emit(JobSubmitted, F("k", "v")); seq != 0 {
		t.Errorf("nil emit returned seq %d", seq)
	}
}

func TestBindingClockAndContext(t *testing.T) {
	j := New(8, Deterministic())
	now := 7.5
	b := Bind(j, "controller", "t-9", "job-9").WithClock(func() float64 { return now })
	b.Emit(JobSubmitted)
	b.WithSource("plan").Emit(PlanSearchStart)
	events := j.Since(0)
	if events[0].At != 7.5 || events[0].Trace != "t-9" || events[0].Job != "job-9" {
		t.Errorf("event = %+v", events[0])
	}
	if events[1].Source != "plan" || events[1].SourceSeq != 1 {
		t.Errorf("WithSource event = %+v", events[1])
	}
}

func TestFieldHelpers(t *testing.T) {
	cases := []struct {
		f    Field
		want string
	}{
		{Fint("a", -3), "-3"},
		{Ffloat("c", 0.1), "0.1"},
		{Ffloat("d", 1234.5), "1234.5"},
		{Fbool("e", true), "true"},
		{F("f", "x"), "x"},
	}
	for _, c := range cases {
		if c.f.Value != c.want {
			t.Errorf("%s = %q, want %q", c.f.Key, c.f.Value, c.want)
		}
	}
}

// TestConcurrentWriters hammers the journal from many writers while one
// reader snapshots continuously, then proves no per-source event was lost
// or reordered: each source's events carry SourceSeq 1..N with ascending
// global Seq. Run with -race.
func TestConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 500
	j := New(writers*perWriter, Deterministic())
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("src-%d", w)
			b := Bind(j, src, "t", "job-1")
			for i := 0; i < perWriter; i++ {
				emitAt(b, float64(i), JobStatus, Fint("i", i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = j.Since(0)
				_ = j.WriteJSONL(&bytes.Buffer{})
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()

	events := j.Since(0)
	if len(events) != writers*perWriter {
		t.Fatalf("retained %d events, want %d", len(events), writers*perWriter)
	}
	lastGlobal := uint64(0)
	perSource := make(map[string]uint64)
	for _, e := range events {
		if e.Seq <= lastGlobal {
			t.Fatalf("global seq not ascending: %d after %d", e.Seq, lastGlobal)
		}
		lastGlobal = e.Seq
		if e.SourceSeq != perSource[e.Source]+1 {
			t.Fatalf("source %s: seq %d after %d (lost or reordered)",
				e.Source, e.SourceSeq, perSource[e.Source])
		}
		perSource[e.Source] = e.SourceSeq
	}
	for src, n := range perSource {
		if n != perWriter {
			t.Errorf("source %s retained %d events, want %d", src, n, perWriter)
		}
	}
}

// TestAppendZeroAlloc pins the steady-state append: once every source is
// known, Append does not allocate, and neither does the canonical encoder
// feeding an attached sink once its scratch buffer has grown.
func TestAppendZeroAlloc(t *testing.T) {
	e := Event{
		Source: "controller", Trace: "t-1", Job: "job-1", Type: SegmentStart, At: 1,
		Fields: []Field{Fint("start_iter", 500), Fint("remaining", 340)},
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"ring", []Option{Deterministic()}},
		{"sink", []Option{WithSink(io.Discard)}},
	} {
		j := New(1024, tc.opts...)
		j.Append(e) // warm the source map and the encoder's scratch buffer
		if allocs := testing.AllocsPerRun(200, func() { j.Append(e) }); allocs != 0 {
			t.Errorf("%s: Append allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}
