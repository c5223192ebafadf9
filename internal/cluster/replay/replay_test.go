package replay

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/obs/journal"
	"cynthia/internal/obs/journal/wal"
)

// testWorld is a minimal attached control plane: a master, a provider on
// a manual clock, a controller, and a journal whose sink is the manager.
type testWorld struct {
	m        *Manager
	ctl      *cluster.Controller
	master   *cluster.Master
	provider *cloud.Provider
	jrnl     *journal.Journal
	now      *float64
}

func newWorld(t *testing.T, dir string, opts Options) *testWorld {
	t.Helper()
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	master, err := cluster.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	ctl := cluster.NewController(master, provider, nil, "")
	jrnl := journal.New(128, journal.Deterministic(), journal.WithSink(m))
	m.Attach(ctl, master, provider, jrnl)
	return &testWorld{m: m, ctl: ctl, master: master, provider: provider, jrnl: jrnl, now: now}
}

func (w *testWorld) emit(src string, typ journal.Type, at float64) {
	w.jrnl.Append(journal.Event{Source: src, Type: typ, At: at})
}

func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	recs, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(r)
	}
	return buf.Bytes()
}

func TestOpenEmptyDir(t *testing.T) {
	m, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.HasState() || m.Snapshot() != nil || len(m.tailRaw) != 0 {
		t.Fatalf("fresh dir reports state: hasState=%v snap=%v tail=%d",
			m.HasState(), m.Snapshot(), len(m.tailRaw))
	}
	if _, _, err := m.Rebuild(); err == nil {
		t.Fatal("Rebuild before Attach succeeded")
	}
	if err := m.SnapshotNow(); err == nil {
		t.Fatal("SnapshotNow before Attach succeeded")
	}
}

// TestSnapshotAndReopen is the basic restart cycle: events flow through
// the sink into the WAL, a snapshot pins the world, and a reopened
// manager recovers both, restores the journal counters and renders the
// job's timeline. The retired case replays lines of types older builds
// journaled and this one no longer declares (testdata/retired-events.jsonl):
// a state directory holding them must still restore, so the decoder keeps
// no list of known types.
func TestSnapshotAndReopen(t *testing.T) {
	retired, err := os.ReadFile("testdata/retired-events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		lines []byte
	}{
		{"current", []byte(`{"seq":1,"src":"api","sseq":1,"job":"job-1","type":"job.submitted","at":0}
{"seq":2,"src":"ctl","sseq":1,"job":"job-1","type":"segment.start","at":1}
{"seq":3,"src":"ctl","sseq":2,"job":"job-1","type":"segment.end","at":2}
`)},
		{"retired", retired},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events []journal.Event
			for _, line := range bytes.SplitAfter(tc.lines, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				e, err := journal.DecodeEvent(line)
				if err != nil {
					t.Fatal(err)
				}
				events = append(events, e)
			}
			if len(events) != 3 {
				t.Fatalf("%d events in the case, want 3", len(events))
			}
			dir := t.TempDir()
			w := newWorld(t, dir, Options{Mode: ModeResume})
			w.jrnl.Append(events[0])
			w.jrnl.Append(events[1])
			if err := w.m.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			w.jrnl.Append(events[2]) // tail event, after the snapshot
			if err := w.m.Close(); err != nil {
				t.Fatal(err)
			}
			if got := walBytes(t, dir); !bytes.Equal(got, tc.lines) {
				t.Fatalf("WAL holds\n%s\nwant\n%s", got, tc.lines)
			}

			w2 := newWorld(t, dir, Options{Mode: ModeResume})
			if !w2.m.HasState() {
				t.Fatal("reopened manager sees no state")
			}
			if snap := w2.m.Snapshot(); snap == nil || snap.TakenAtSeq != 2 {
				t.Fatalf("snapshot = %+v, want TakenAtSeq 2", snap)
			}
			if got := len(w2.m.RecoveredEvents()); got != 3 {
				t.Fatalf("recovered %d events, want 3", got)
			}
			if len(w2.m.tailRaw) != 1 {
				t.Fatalf("tail = %d, want 1", len(w2.m.tailRaw))
			}
			if _, _, err := w2.m.Rebuild(); err != nil {
				t.Fatal(err)
			}
			// Resume mode keeps the tail as history and continues numbering.
			if w2.jrnl.LastSeq() != 3 || len(w2.jrnl.Since(0)) != 3 {
				t.Fatalf("journal lastSeq=%d len=%d, want 3/3", w2.jrnl.LastSeq(), len(w2.jrnl.Since(0)))
			}
			var text bytes.Buffer
			if err := journal.BuildTimeline("job-1", w2.jrnl.JobEvents("job-1")).WriteText(&text); err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if !strings.Contains(text.String(), string(e.Type)+" ") {
					t.Errorf("timeline lacks %s:\n%s", e.Type, text.String())
				}
			}
			w2.emit("ctl", journal.JobFinished, 3)
			if w2.jrnl.LastSeq() != 4 {
				t.Fatalf("post-rebuild seq=%d, want 4", w2.jrnl.LastSeq())
			}
		})
	}
}

// TestStrictModeVerifiesTail pins the strict-mode contract: the journal
// rewinds to the snapshot, re-emitted events are byte-compared against
// the recovered tail and consumed instead of re-appended, and the final
// WAL is byte-identical to one from an uninterrupted run.
func TestStrictModeVerifiesTail(t *testing.T) {
	dir := t.TempDir()
	w := newWorld(t, dir, Options{})
	w.emit("api", journal.JobSubmitted, 0)
	if err := w.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	w.emit("ctl", journal.SegmentStart, 1)
	w.emit("ctl", journal.SegmentEnd, 2)
	w.m.Close()
	before := walBytes(t, dir)

	w2 := newWorld(t, dir, Options{Mode: ModeStrict})
	if _, _, err := w2.m.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// Strict mode rewound the journal to the snapshot...
	if w2.jrnl.LastSeq() != 1 || len(w2.jrnl.Since(0)) != 1 {
		t.Fatalf("strict rebuild: lastSeq=%d len=%d, want 1/1", w2.jrnl.LastSeq(), len(w2.jrnl.Since(0)))
	}
	if err := w2.m.VerifyError(); err == nil {
		t.Fatal("tail not yet re-emitted, want pending VerifyError")
	}
	// ...and re-execution re-emits the identical events, consuming the
	// pending tail without growing the WAL.
	w2.emit("ctl", journal.SegmentStart, 1)
	w2.emit("ctl", journal.SegmentEnd, 2)
	if err := w2.m.VerifyError(); err != nil {
		t.Fatalf("identical replay flagged: %v", err)
	}
	w2.m.Close()
	if after := walBytes(t, dir); !bytes.Equal(before, after) {
		t.Fatalf("WAL changed across a verified replay:\n before %q\n after %q", before, after)
	}
}

func TestStrictModeFlagsDivergence(t *testing.T) {
	dir := t.TempDir()
	w := newWorld(t, dir, Options{})
	w.emit("api", journal.JobSubmitted, 0)
	if err := w.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	w.emit("ctl", journal.SegmentStart, 1)
	w.m.Close()

	w2 := newWorld(t, dir, Options{Mode: ModeStrict})
	if _, _, err := w2.m.Rebuild(); err != nil {
		t.Fatal(err)
	}
	w2.emit("ctl", journal.SegmentEnd, 99) // diverges from the recorded tail
	if err := w2.m.VerifyError(); err == nil {
		t.Fatal("divergent replay not flagged")
	}
	// Divergent events still reach the WAL (write-through, not data loss).
	recs, err := wal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("WAL has %d records after write-through, want 3", len(recs))
	}
}

// TestBarrierCadence checks the snapshot policy: admit and done always
// snapshot, segment barriers every SnapshotEvery-th call, mid-recovery
// never.
func TestBarrierCadence(t *testing.T) {
	dir := t.TempDir()
	w := newWorld(t, dir, Options{SnapshotEvery: 2})
	w.emit("api", journal.JobSubmitted, 0)
	if err := w.m.Barrier("job-1", cluster.PhaseAdmit); err != nil {
		t.Fatal(err)
	}
	_, seq, err := wal.LatestSnapshot(dir)
	if err != nil || seq != 1 {
		t.Fatalf("admit barrier: snapshot seq=%d err=%v, want 1", seq, err)
	}
	w.emit("ctl", journal.SegmentStart, 1)
	if err := w.m.Barrier("job-1", cluster.PhaseSegment); err != nil { // 1st: not due
		t.Fatal(err)
	}
	if _, seq, _ = wal.LatestSnapshot(dir); seq != 1 {
		t.Fatalf("first segment barrier snapshotted (seq=%d)", seq)
	}
	w.emit("ctl", journal.SegmentEnd, 2)
	if err := w.m.Barrier("job-1", cluster.PhaseRecoveryMid); err != nil { // never
		t.Fatal(err)
	}
	if _, seq, _ = wal.LatestSnapshot(dir); seq != 1 {
		t.Fatalf("mid-recovery barrier snapshotted (seq=%d)", seq)
	}
	if err := w.m.Barrier("job-1", cluster.PhaseSegment); err != nil { // 2nd: due
		t.Fatal(err)
	}
	if _, seq, _ = wal.LatestSnapshot(dir); seq != 3 {
		t.Fatalf("second segment barrier: snapshot seq=%d, want 3", seq)
	}
}

// TestBarrierFailsWhenNotDurable pins the admission contract: an admit
// barrier that cannot snapshot returns the error, so the job is never
// acknowledged; a done barrier stays non-fatal and counts the failure.
func TestBarrierFailsWhenNotDurable(t *testing.T) {
	w := newWorld(t, t.TempDir(), Options{})
	if err := w.m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.m.Barrier("job-1", cluster.PhaseAdmit); err == nil {
		t.Fatal("admit barrier on a closed manager returned nil")
	}
	before := replayObs().failures.Value()
	if err := w.m.Barrier("job-1", cluster.PhaseDone); err != nil {
		t.Fatalf("done barrier failure was fatal: %v", err)
	}
	if got := replayObs().failures.Value(); got != before+1 {
		t.Errorf("snapshot failures = %d, want %d", got, before+1)
	}
}

// TestBarrierReportsMasterKill wires a fault plan with a scheduled
// master kill and checks the barrier surfaces it as ErrMasterKilled,
// exactly once per scheduled kill.
func TestBarrierReportsMasterKill(t *testing.T) {
	w := newWorld(t, t.TempDir(), Options{})
	w.provider.SetFaultPlan(cloud.FaultPlan{Seed: 1, KillMasterAtSec: []float64{10}})
	if err := w.m.Barrier("job-1", cluster.PhaseSegment); err != nil {
		t.Fatalf("kill fired before its time: %v", err)
	}
	*w.now = 11
	if err := w.m.Barrier("job-1", cluster.PhaseSegment); !errors.Is(err, cluster.ErrMasterKilled) {
		t.Fatalf("err = %v, want ErrMasterKilled", err)
	}
	if err := w.m.Barrier("job-1", cluster.PhaseSegment); err != nil {
		t.Fatalf("kill fired twice: %v", err)
	}
}
