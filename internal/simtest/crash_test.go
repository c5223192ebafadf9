package simtest

// crash_test.go is the durability acceptance suite: the metamorphic
// relation that a golden-scenario run killed mid-flight and restarted
// from its state directory finishes bit-identical to the uninterrupted
// run — same outcome (cost, deadline verdict, history), same durable
// journal bytes. Kill points are derived from each scenario's own
// uninterrupted journal, so every scenario is killed at a segment
// boundary, and scenarios with recoveries are additionally killed
// mid-StatusRecovering and double-killed (crash during the replay of a
// crash).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cynthia/internal/obs/journal"
)

// killPoints derives the interesting crash instants from an
// uninterrupted run's journal: the first segment boundary, and — when
// the run recovers — the middle of the first recovery cycle's restart
// overhead (so the kill lands mid-StatusRecovering).
func killPoints(want *Outcome, events []journal.Event) map[string][]float64 {
	points := map[string][]float64{}
	for _, e := range events {
		if e.Type == journal.SegmentEnd {
			points["segment-boundary"] = []float64{e.At}
			break
		}
	}
	const overhead = 30.0 // RecoveryConfig.RestartOverheadSec default
	// Mid-recovery kills need an actual recovery cycle: with recovery
	// disabled the RecoveryStart event fires but the overhead is never
	// charged, so a kill scheduled inside it would never be reached.
	if want.Recoveries > 0 {
		for _, e := range events {
			if e.Type == journal.RecoveryStart {
				mid := e.At + overhead/2
				points["mid-recovery"] = []float64{mid}
				points["double-crash"] = []float64{mid, mid}
				break
			}
		}
	}
	if len(points) == 0 {
		// No segment ever ran (e.g. planning failed): kill at the first
		// barrier that fires at all.
		points["first-barrier"] = []float64{0}
	}
	return points
}

// withKills returns a copy of the scenario whose fault plan schedules
// the given master kills.
func withKills(s *Scenario, kills []float64) *Scenario {
	c := *s
	var f FaultSpec
	if s.Fault != nil {
		f = *s.Fault
	}
	f.KillMasterAtSec = kills
	c.Fault = &f
	return &c
}

// TestCrashRestartMatchesUninterrupted is the tentpole metamorphic test:
// for every golden scenario and every derived kill point, the
// crashed-and-restarted run must produce the exact Outcome of the
// uninterrupted run and a WAL whose JSONL content is byte-identical to
// the uninterrupted journal.
func TestCrashRestartMatchesUninterrupted(t *testing.T) {
	for _, s := range goldenScenarios(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			want, jrnl, err := RunScenarioDetailed(s)
			if err != nil && want == nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			wantJSONL := journalJSONL(jrnl)
			events := jrnl.Since(0)
			for name, kills := range killPoints(want, events) {
				name, kills := name, kills
				t.Run(name, func(t *testing.T) {
					res, err := RunScenarioCrashed(withKills(s, kills), t.TempDir())
					if err != nil {
						t.Fatalf("crashed run: %v", err)
					}
					if res.Crashes != len(kills) {
						t.Errorf("crashes = %d, want %d (kills at %v)", res.Crashes, len(kills), kills)
					}
					if !reflect.DeepEqual(res.Outcome, want) {
						t.Errorf("outcome diverged after crash+restart\n got %+v\nwant %+v", res.Outcome, want)
					}
					if !bytes.Equal(res.WALBytes, wantJSONL) {
						t.Errorf("durable journal diverged after crash+restart: got %d bytes, want %d\n%s",
							len(res.WALBytes), len(wantJSONL), firstDiff(res.WALBytes, wantJSONL))
					}
				})
			}
		})
	}
}

// firstDiff renders the first differing line of two JSONL streams.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("first diff at line %d:\n got %s\nwant %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("streams are a prefix of one another (%d vs %d lines)", len(al), len(bl))
}

// TestCrashHarnessRejectsDirtyStateDir pins the first-boot contract: the
// harness refuses to start a "fresh" run over a state directory that
// already holds history.
func TestCrashHarnessRejectsDirtyStateDir(t *testing.T) {
	s := goldenScenarios(t)[0]
	dir := t.TempDir()
	if _, err := RunScenarioCrashed(withKills(s, nil), dir); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := RunScenarioCrashed(withKills(s, nil), dir); err == nil {
		t.Fatal("second run over the same state dir succeeded")
	}
}
