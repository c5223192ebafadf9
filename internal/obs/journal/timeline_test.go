package journal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// emitAt emits one event from b stamped at the given time.
func emitAt(b Binding, at float64, typ Type, fields ...Field) uint64 {
	return b.WithClock(func() float64 { return at }).Emit(typ, fields...)
}

func sampleJobEvents() []Event {
	j := New(64, Deterministic())
	b := Bind(j, "controller", "t-000001", "job-1")
	emitAt(b, 0, JobSubmitted, F("workload", "mnist"))
	emitAt(b.WithSource("plan"), 0, PlanSearchDone, Fint("enumerated", 40), Fint("pruned", 1000))
	emitAt(b, 0, PlanChosen, F("type", "c4.xlarge"), Fint("workers", 8))
	emitAt(b.WithSource("cloud"), 0, InstanceLaunched, F("id", "i-00000001"))
	emitAt(b, 0, SegmentStart, Fint("start_iter", 0))
	emitAt(b.WithSource("cloud"), 40, InstancePreempted, F("id", "i-00000001"))
	emitAt(b, 40, SegmentEnd, Fbool("interrupted", true))
	emitAt(b, 40, RecoveryStart, Fint("recovery", 1))
	emitAt(b, 70, RecoveryDone)
	emitAt(b, 70, SegmentStart, Fint("start_iter", 500))
	emitAt(b, 120, SegmentEnd)
	emitAt(b, 120, JobFinished, F("status", "succeeded"))
	return j.JobEvents("job-1")
}

func TestBuildTimeline(t *testing.T) {
	tl := BuildTimeline("job-1", sampleJobEvents())
	if tl.Job != "job-1" || tl.Trace != "t-000001" {
		t.Errorf("timeline header = %q/%q", tl.Job, tl.Trace)
	}
	if len(tl.Steps) != 12 {
		t.Fatalf("steps = %d, want 12", len(tl.Steps))
	}
	if tl.Steps[0].Type != string(JobSubmitted) || tl.Steps[0].Detail != "workload=mnist" {
		t.Errorf("first step = %+v", tl.Steps[0])
	}
	last := tl.Steps[len(tl.Steps)-1]
	if last.Type != string(JobFinished) || last.At != 120 {
		t.Errorf("last step = %+v", last)
	}
	for i := 1; i < len(tl.Steps); i++ {
		if tl.Steps[i].Seq <= tl.Steps[i-1].Seq {
			t.Fatalf("steps out of order at %d", i)
		}
	}
}

func TestTimelineWriteText(t *testing.T) {
	tl := BuildTimeline("job-1", sampleJobEvents())
	var buf bytes.Buffer
	if err := tl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"timeline for job-1  trace=t-000001 (12 events)",
		"job.submitted",
		"workload=mnist",
		"cloud.instance.preempted",
		"recovery.start",
		"job.finished",
		"status=succeeded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text timeline missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineChromeTrace(t *testing.T) {
	tl := BuildTimeline("job-1", sampleJobEvents())
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, e := range events {
		if e["ph"] == "X" {
			spans[e["name"].(string)]++
		}
	}
	if spans["job.submitted"] != 1 {
		t.Errorf("job span count = %d, want 1 (spans: %v)", spans["job.submitted"], spans)
	}
	if spans["segment.start"] != 2 {
		t.Errorf("segment span count = %d, want 2", spans["segment.start"])
	}
	if spans["recovery.start"] != 1 {
		t.Errorf("recovery span count = %d, want 1", spans["recovery.start"])
	}
}

func TestTimelineChromeTraceOpenJob(t *testing.T) {
	// A still-running job (no terminal event) closes its spans at the
	// last event rather than dropping them.
	j := New(8, Deterministic())
	b := Bind(j, "controller", "t", "job-2")
	emitAt(b, 0, JobSubmitted)
	emitAt(b, 5, SegmentStart)
	tl := BuildTimeline("job-2", j.JobEvents("job-2"))
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	nspans := 0
	for _, e := range events {
		if e["ph"] == "X" {
			nspans++
		}
	}
	if nspans != 2 {
		t.Errorf("open-job spans = %d, want 2", nspans)
	}
}
