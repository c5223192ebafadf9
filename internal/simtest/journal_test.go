package simtest

import (
	"bytes"
	"path/filepath"
	"testing"

	"cynthia/internal/obs/journal"
)

// journalJSONL is the canonical JSONL encoding of a journal's retained
// events.
func journalJSONL(j *journal.Journal) []byte {
	var out []byte
	for _, e := range j.Since(0) {
		out = journal.AppendJSONL(out, e)
	}
	return out
}

// goldenScenarios loads every scenario in the corpus.
func goldenScenarios(t *testing.T) []*Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Scenario, 0, len(paths))
	for _, path := range paths {
		s, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestGoldenJournalByteIdentical replays every golden scenario twice and
// requires the flight recorder's canonical JSONL to match byte for byte.
// This is the determinism contract the future write-ahead log builds on:
// no wall-clock timestamps, no map iteration order, no goroutine
// interleaving may leak into the encoding.
func TestGoldenJournalByteIdentical(t *testing.T) {
	for _, s := range goldenScenarios(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			_, j1, err := RunScenarioDetailed(s)
			if err != nil {
				t.Fatalf("first replay: %v", err)
			}
			_, j2, err := RunScenarioDetailed(s)
			if err != nil {
				t.Fatalf("second replay: %v", err)
			}
			a, b := journalJSONL(j1), journalJSONL(j2)
			if len(a) == 0 {
				t.Fatal("replay recorded no journal events")
			}
			if !bytes.Equal(a, b) {
				t.Errorf("journal diverged between identical replays\n first: %d bytes\nsecond: %d bytes", len(a), len(b))
			}
		})
	}
}

// firstOf returns the sequence number of the first event of the given
// type, or 0 if none exists.
func firstOf(events []journal.Event, typ journal.Type) uint64 {
	for _, e := range events {
		if e.Type == typ {
			return e.Seq
		}
	}
	return 0
}

func fieldValue(e journal.Event, key string) (string, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value, true
		}
	}
	return "", false
}

// TestGoldenTimelineCausalChain checks that for every golden scenario the
// journal reconstructs the complete causal narrative: submission, the
// plan decision with its search-space accounting, segment transitions,
// preemption and recovery when the fault schedule fires, and a terminal
// event — all in causal order and correlated by one trace ID.
func TestGoldenTimelineCausalChain(t *testing.T) {
	for _, s := range goldenScenarios(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			out, jrnl, err := RunScenarioDetailed(s)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			events := jrnl.JobEvents("job-1")
			if len(events) == 0 {
				t.Fatal("no journal events correlated with job-1")
			}

			submitted := firstOf(events, journal.JobSubmitted)
			chosen := firstOf(events, journal.PlanChosen)
			segStart := firstOf(events, journal.SegmentStart)
			segEnd := firstOf(events, journal.SegmentEnd)
			if submitted == 0 {
				t.Error("missing job.submitted")
			}
			if chosen == 0 {
				t.Fatal("missing job.plan.chosen")
			}
			if segStart == 0 || segEnd == 0 {
				t.Error("missing segment transitions")
			}
			if !(submitted < chosen && chosen < segStart && segStart < segEnd) {
				t.Errorf("causal order violated: submitted=%d chosen=%d segStart=%d segEnd=%d",
					submitted, chosen, segStart, segEnd)
			}

			// The chosen plan records the Theorem 4.1 search-space
			// accounting: how many candidates were enumerated and how
			// many the bounds pruned away.
			for _, e := range events {
				if e.Type != journal.PlanChosen {
					continue
				}
				if v, ok := fieldValue(e, "enumerated"); !ok || v == "0" {
					t.Errorf("plan.chosen missing enumerated count (fields %v)", e.Fields)
				}
				if _, ok := fieldValue(e, "pruned"); !ok {
					t.Errorf("plan.chosen missing pruned count (fields %v)", e.Fields)
				}
				break
			}

			// Terminal state matches the outcome and closes the chain.
			var terminal journal.Type = journal.JobFinished
			if out.Status == "failed" {
				terminal = journal.JobFailed
			}
			term := firstOf(events, terminal)
			if term == 0 {
				t.Fatalf("missing terminal event %s for status %s", terminal, out.Status)
			}
			if term < segEnd {
				t.Errorf("terminal event %s (seq %d) precedes last segment end (seq %d)", terminal, term, segEnd)
			}

			// Faulted-and-recovered scenarios must show the preemption
			// and the recovery bracket between the segments.
			if out.Recoveries > 0 {
				preempt := firstOf(events, journal.InstancePreempted)
				recStart := firstOf(events, journal.RecoveryStart)
				recDone := firstOf(events, journal.RecoveryDone)
				if preempt == 0 || recStart == 0 || recDone == 0 {
					t.Fatalf("recovered scenario missing fault chain: preempted=%d recovery.start=%d recovery.done=%d",
						preempt, recStart, recDone)
				}
				if !(preempt < recStart && recStart < recDone && recDone < term) {
					t.Errorf("fault chain out of order: preempted=%d start=%d done=%d terminal=%d",
						preempt, recStart, recDone, term)
				}
			}

			// One trace ID correlates every event of the job.
			trace := events[0].Trace
			if trace == "" {
				t.Errorf("%s carries no trace ID", events[0].Type)
			}
			for _, e := range events {
				if e.Trace != trace {
					t.Fatalf("trace IDs diverge: %s carries %q, want %q", e.Type, e.Trace, trace)
				}
			}

			// The timeline renders every correlated event as one step.
			tl := journal.BuildTimeline("job-1", events)
			if len(tl.Steps) != len(events) {
				t.Errorf("timeline has %d steps for %d events", len(tl.Steps), len(events))
			}
			if tl.Trace != trace {
				t.Errorf("timeline trace %q, want %q", tl.Trace, trace)
			}
		})
	}
}
