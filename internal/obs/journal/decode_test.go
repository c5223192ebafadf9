package journal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// canonicalLines are AppendJSONL encodings covering every key, field
// order, float formatting and string escaping.
var canonicalLines = []string{
	`{"seq":1,"src":"api","sseq":1,"type":"job.submitted","at":0}` + "\n",
	`{"seq":2,"src":"ctl","sseq":1,"trace":"t-1","job":"job-1","type":"segment.start","at":1.5,"fields":{"seg":"1","iters":"100"}}` + "\n",
	`{"seq":3,"src":"ctl","sseq":2,"job":"job-1","type":"segment.end","at":12.25,"wall_ns":123456789,"fields":{"zeta":"a","alpha":"b"}}` + "\n",
	`{"seq":4,"src":"cloud","sseq":1,"type":"cloud.instance.launched","at":0.30000000000000004,"fields":{"id":"i-1","quote":"she said \"go\""}}` + "\n",
}

// TestDecodeRoundTripsBytes pins the property the WAL replay verifier
// depends on: decode followed by the canonical encoder reproduces the
// input bytes exactly, including field order.
func TestDecodeRoundTripsBytes(t *testing.T) {
	for _, line := range canonicalLines {
		e, err := DecodeEvent([]byte(line))
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		if got := string(AppendJSONL(nil, e)); got != line {
			t.Errorf("round trip mismatch:\n got %q\nwant %q", got, line)
		}
	}
}

func TestDecodeJSONLStream(t *testing.T) {
	input := `{"seq":1,"src":"a","sseq":1,"type":"x","at":0}` + "\n\n" +
		`{"seq":2,"src":"a","sseq":2,"type":"y","at":1,"fields":{"k":"v"}}` + "\n"
	var events []Event
	for _, line := range strings.Split(input, "\n") {
		if line == "" {
			continue
		}
		e, err := DecodeEvent([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[1].Seq != 2 || events[1].Fields[0].Key != "k" || events[1].Fields[0].Value != "v" {
		t.Fatalf("event 2 decoded wrong: %+v", events[1])
	}
}

// FuzzDecodeEvent feeds DecodeEvent arbitrary bytes, as a recovered WAL
// record can hold. It must never panic, and whatever it accepts must
// survive a canonical re-encode: AppendJSONL of the decoded event decodes
// back to the same event.
func FuzzDecodeEvent(f *testing.F) {
	for _, line := range canonicalLines {
		f.Add([]byte(line))
	}
	f.Add([]byte(`{"seq":1,"src":"a","sseq":1,"type":"x","at":-0,"fields":{"k":"\u0001\u2028\ud800"}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := DecodeEvent(line)
		if err != nil {
			return
		}
		again, err := DecodeEvent(AppendJSONL(nil, e))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", e, err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", again, e)
		}
	})
}

func TestDecodeRejectsUnknownKeys(t *testing.T) {
	if _, err := DecodeEvent([]byte(`{"seq":1,"src":"a","sseq":1,"type":"x","at":0,"bogus":"1"}`)); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := DecodeEvent([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestJournalRoundTripThroughSink writes events through a journal with a
// sink, decodes the sink bytes, restores them into a fresh journal, and
// checks the fresh journal continues numbering where the original left
// off — the restart path in miniature.
func TestJournalRoundTripThroughSink(t *testing.T) {
	var sink bytes.Buffer
	j := New(8, Deterministic(), WithSink(&sink))
	j.Append(Event{Source: "api", Type: JobSubmitted, At: 0, Job: "job-1"})
	j.Append(Event{Source: "ctl", Type: SegmentStart, At: 1, Job: "job-1",
		Fields: []Field{Fint("seg", 1)}})
	j.Append(Event{Source: "ctl", Type: SegmentEnd, At: 2, Job: "job-1"})

	var events []Event
	for _, line := range bytes.SplitAfter(sink.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		e, err := DecodeEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	restored := New(8, Deterministic())
	restored.Restore(events, j.LastSeq(), j.SrcSeqs())
	if len(restored.Since(0)) != 3 || restored.LastSeq() != 3 {
		t.Fatalf("restored len=%d lastSeq=%d", len(restored.Since(0)), restored.LastSeq())
	}
	// Continued appends must keep both counters contiguous.
	seq := restored.Append(Event{Source: "ctl", Type: JobFinished, At: 3, Job: "job-1"})
	if seq != 4 {
		t.Fatalf("post-restore seq=%d, want 4", seq)
	}
	evs := restored.Since(0)
	if last := evs[len(evs)-1]; last.SourceSeq != 3 {
		t.Fatalf("ctl source seq=%d, want 3 (2 before restore + 1 after)", last.SourceSeq)
	}
	// Byte-identical re-encoding of the whole stream.
	var out bytes.Buffer
	if err := restored.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := j.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Source: "ctl", Type: JobFinished, At: 3, Job: "job-1"})
	want.Reset()
	if err := j.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("restored journal re-encodes differently:\n got %q\nwant %q", out.Bytes(), want.Bytes())
	}
}

// TestRestoreCountersTakePrecedence models the
// snapshot-present-but-log-missing restart: the counters say more
// happened than the surviving events show, and the journal must trust
// the counters so numbering never goes backwards.
func TestRestoreCountersTakePrecedence(t *testing.T) {
	j := New(8, Deterministic())
	j.Restore([]Event{{Seq: 2, Source: "ctl", SourceSeq: 1, Type: "x"}}, 9, map[string]uint64{"ctl": 5})
	if j.LastSeq() != 9 {
		t.Fatalf("lastSeq=%d, want 9", j.LastSeq())
	}
	seq := j.Append(Event{Source: "ctl", Type: "y"})
	if seq != 10 {
		t.Fatalf("next seq=%d, want 10", seq)
	}
	if evs := j.Since(0); evs[len(evs)-1].SourceSeq != 6 {
		t.Fatalf("ctl sseq=%d, want 6", evs[len(evs)-1].SourceSeq)
	}
}

func TestOldestSeq(t *testing.T) {
	j := New(2, Deterministic())
	if got := j.OldestSeq(); got != 1 {
		t.Fatalf("empty journal OldestSeq=%d, want 1 (next append)", got)
	}
	j.Append(Event{Source: "a", Type: "x"})
	if got := j.OldestSeq(); got != 1 {
		t.Fatalf("OldestSeq=%d, want 1", got)
	}
	j.Append(Event{Source: "a", Type: "x"})
	j.Append(Event{Source: "a", Type: "x"}) // evicts seq 1
	if got := j.OldestSeq(); got != 2 {
		t.Fatalf("after eviction OldestSeq=%d, want 2", got)
	}
}
