package replay

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/obs/journal/wal"
	"cynthia/internal/plan"
)

// modelWorld is a seeded model of the control-plane world. Jobs and
// instances move through their lifecycles the way the controller and
// provider move them, and a frozen record — a terminal job, a finished
// instance — is never touched again.
type modelWorld struct {
	rng  *rand.Rand
	wl   *model.Workload
	typ  cloud.InstanceType
	seq  uint64
	src  map[string]uint64
	cs   cluster.ControllerState
	ms   cluster.MasterState
	ps   cloud.ProviderState
	seen map[string]bool // what the sequence covered, for the coverage check
}

func newModelWorld(t *testing.T, seed int64) *modelWorld {
	t.Helper()
	wl, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	typ, err := cloud.DefaultCatalog().Lookup("m4.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return &modelWorld{rng: rand.New(rand.NewSource(seed)), wl: wl, typ: typ, seen: map[string]bool{}}
}

// lifecycle is the status a live job moves to next; a running job may
// also detour through recovering.
var lifecycle = map[cluster.JobStatus]cluster.JobStatus{
	cluster.StatusQueued:       cluster.StatusPlanning,
	cluster.StatusPlanning:     cluster.StatusProvisioning,
	cluster.StatusProvisioning: cluster.StatusRunning,
	cluster.StatusRecovering:   cluster.StatusRunning,
}

var terminals = []cluster.JobStatus{cluster.StatusSucceeded, cluster.StatusMissedGoal, cluster.StatusFailed}

// step moves the world on by one barrier's worth of change.
func (w *modelWorld) step() {
	r := w.rng
	w.seq += uint64(1 + r.Intn(20))
	w.ps.ClockSec += r.Float64() * 300

	if r.Intn(2) == 0 {
		w.cs.NextJob++
		id := fmt.Sprintf("job-%d", w.cs.NextJob)
		w.cs.Jobs = append(w.cs.Jobs, cluster.JobState{
			ID: id, TraceID: fmt.Sprintf("trace-%06d", w.cs.NextJob), Seq: w.cs.NextJob,
			Workload: w.wl, Goal: plan.Goal{TimeSec: 600 + r.Float64()*1800, LossTarget: 0.2},
			Status: cluster.StatusQueued, History: []cluster.JobStatus{cluster.StatusQueued},
		})
	}
	for i := range w.cs.Jobs {
		js := &w.cs.Jobs[i]
		if js.Status.Terminal() || r.Intn(2) == 0 {
			continue
		}
		next, ok := lifecycle[js.Status]
		switch {
		case ok:
		case r.Intn(4) == 0:
			next = cluster.StatusRecovering
			js.Recoveries++
			js.LostIterations += r.Intn(50)
		default:
			next = terminals[r.Intn(len(terminals))]
			js.TrainingTime = r.Float64() * 2000
			js.FinalLoss = 0.19 + r.Float64()*1e-7
			js.Cost = r.Float64() * 1e-3
			if next == cluster.StatusFailed {
				js.Err = "cloud: insufficient capacity <m4.xlarge> & retries exhausted"
			}
		}
		if next == cluster.StatusProvisioning {
			js.Plan = plan.Plan{Type: w.typ, Workers: 1 + r.Intn(3), PS: 1, Iterations: 1000, PredTime: 900, Cost: 0.01, Feasible: true}
		}
		js.Status = next
		js.History = append(js.History, next)
		w.seen[string(next)] = true
	}

	if r.Intn(2) == 0 {
		for n := 1 + r.Intn(2); n > 0; n-- {
			w.ps.NextID++
			job := fmt.Sprintf("job-%d", 1+r.Intn(max(1, w.cs.NextJob)))
			w.ps.Instances = append(w.ps.Instances, cloud.Instance{
				ID: fmt.Sprintf("i-%08x", w.ps.NextID), Type: w.typ,
				Tags:  map[string]string{"job": job, "role": "worker"},
				State: cloud.StateRunning, LaunchedAt: w.ps.ClockSec, ReadyAt: w.ps.ClockSec + r.Float64(),
				Spot: r.Intn(3) == 0, BidPerHour: 0.07,
			})
			w.seen["launched"] = true
		}
	}
	for i := range w.ps.Instances {
		inst := &w.ps.Instances[i]
		if inst.State != cloud.StateRunning || r.Intn(4) != 0 {
			continue
		}
		inst.State = cloud.StateTerminated
		if r.Intn(3) == 0 {
			inst.State = cloud.StateFailed // revoked
		}
		inst.TerminatedAt = w.ps.ClockSec
		w.seen["instance-"+inst.State.String()] = true
	}

	w.cs.Segments = nil
	if r.Intn(3) > 0 {
		for _, js := range w.cs.Jobs {
			if js.Status == cluster.StatusRunning || js.Status == cluster.StatusRecovering {
				w.cs.Segments = append(w.cs.Segments, cluster.SegmentState{
					JobID: js.ID, Phase: cluster.PhaseSegment, Plan: js.Plan,
					TotalIters: 1000, Done: r.Intn(1000), Elapsed: r.Float64() * 900, Handled: []string{"i-00000001"},
				})
			}
		}
	}
	w.ps.Fault = nil
	if r.Intn(2) == 0 {
		w.ps.Fault = &cloud.FaultState{
			Plan:      cloud.FaultPlan{Seed: 7, PreemptRate: 0.5, PreemptMinSec: 60, PreemptMaxSec: 600},
			Draws:     r.Intn(4),
			PreemptAt: map[string]float64{"i-00000001": w.ps.ClockSec + 1e21},
		}
	}
	w.src = nil
	if r.Intn(2) == 0 {
		w.src = map[string]uint64{"controller": w.seq / 2, "cloud": w.seq / 3}
	}
	w.ms = cluster.MasterState{NextPod: w.cs.NextJob}
	if r.Intn(2) == 0 {
		w.ms.Nodes = []cluster.NodeState{{Name: "node-a", InstanceID: "i-00000001", Type: w.typ, Cores: 2, Used: []string{"p-1", ""}}}
		w.ms.Pods = []cluster.Pod{{Name: "p-1", Role: cluster.RoleWorker, Job: "job-1", Node: "node-a"}}
	}
	for cond, set := range map[string]bool{
		"segments": len(w.cs.Segments) > 0, "fault": w.ps.Fault != nil, "src_seqs": w.src != nil,
	} {
		w.seen[fmt.Sprintf("%s=%v", cond, set)] = true
	}
}

// frozen counts the world's terminal jobs and finished instances.
func (w *modelWorld) frozen() (jobs, insts int) {
	for _, js := range w.cs.Jobs {
		if js.Status.Terminal() {
			jobs++
		}
	}
	for _, inst := range w.ps.Instances {
		if inst.State.Finished() {
			insts++
		}
	}
	return jobs, insts
}

// load restores the model into the attached world, as Rebuild would but
// without resetting the manager's encoding cache.
func (w *modelWorld) load(tw *testWorld) {
	*tw.now = w.ps.ClockSec
	tw.provider.RestoreState(w.ps)
	tw.master.RestoreState(w.ms)
	tw.ctl.RestoreState(w.cs)
	tw.jrnl.Restore(nil, w.seq, w.src)
}

// marshalWorld is json.Marshal of the world the manager would snapshot.
func marshalWorld(t *testing.T, tw *testWorld) []byte {
	t.Helper()
	want, err := json.Marshal(&WorldSnapshot{
		TakenAtSeq: tw.jrnl.LastSeq(),
		SrcSeqs:    tw.jrnl.SrcSeqs(),
		Controller: tw.ctl.ExportState(nil),
		Master:     tw.master.ExportState(),
		Provider:   tw.provider.ExportState(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// recovered reads the world a restart over dir would recover: the
// newest snapshot, assembled as Open assembles it, or nil with none.
func recovered(t *testing.T, dir string) *WorldSnapshot {
	t.Helper()
	s, snap, err := wal.OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if snap == nil {
		return nil
	}
	ws, err := assemble(snap.Frozen, snap.Live, make(map[frozenKey]bool))
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// encode is json.Marshal of ws: two worlds are the same world when they
// encode the same, as a nil and an empty map do.
func encode(t *testing.T, ws *WorldSnapshot) []byte {
	t.Helper()
	b, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// export is the world the manager of tw would snapshot now.
func export(tw *testWorld) *WorldSnapshot {
	return &WorldSnapshot{
		TakenAtSeq: tw.jrnl.LastSeq(),
		SrcSeqs:    tw.jrnl.SrcSeqs(),
		Controller: tw.ctl.ExportState(nil),
		Master:     tw.master.ExportState(),
		Provider:   tw.provider.ExportState(nil),
	}
}

// TestSnapshotSlotsRestoreEveryWorld drives one strict-mode Manager
// through a seeded sequence of worlds and checks after every snapshot
// that the directory restores exactly the exported world and that the
// frozen region holds exactly the world's frozen records.
func TestSnapshotSlotsRestoreEveryWorld(t *testing.T) {
	dir := t.TempDir()
	tw := newWorld(t, dir, Options{Mode: ModeStrict})
	w := newModelWorld(t, 28)
	for i := 0; i < 120; i++ {
		w.step()
		w.load(tw)
		if err := tw.m.SnapshotNow(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got, want := encode(t, recovered(t, dir)), encode(t, export(tw)); !bytes.Equal(got, want) {
			t.Fatalf("step %d: the directory restores\n%s\nnot the exported world\n%s", i, got, want)
		}
		jobs, insts := w.frozen()
		if len(tw.m.frozen) != jobs+insts {
			t.Fatalf("step %d: frozen region holds %d records, the world %d jobs and %d instances",
				i, len(tw.m.frozen), jobs, insts)
		}
	}
	if err := tw.m.VerifyError(); err != nil {
		t.Fatalf("strict mode flagged a snapshot: %v", err)
	}
	for _, want := range []string{
		"planning", "provisioning", "running", "recovering", "succeeded", "missed-goal", "failed",
		"launched", "instance-terminated", "instance-failed",
		"segments=true", "segments=false",
		"fault=true", "fault=false", "src_seqs=true", "src_seqs=false",
	} {
		if !w.seen[want] {
			t.Errorf("the seeded sequence never covered %s", want)
		}
	}
}

// TestConcurrentSnapshots: barriers of concurrent jobs snapshot from
// several goroutines at once. The manager serializes them, every
// snapshot verifies in strict mode, and the directory restores the world.
func TestConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	tw := newWorld(t, dir, Options{Mode: ModeStrict})
	w := newModelWorld(t, 9)
	for n := 0; n < 20; n++ {
		w.step()
	}
	w.load(tw)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := tw.m.SnapshotNow(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := tw.m.VerifyError(); err != nil {
		t.Fatal(err)
	}
	if got, want := encode(t, recovered(t, dir)), encode(t, export(tw)); !bytes.Equal(got, want) {
		t.Fatalf("the directory restores\n%s\nnot the world\n%s", got, want)
	}
}

// slotFiles reads the two slot files of dir; a missing one reads empty.
func slotFiles(t *testing.T, dir string) [2][]byte {
	t.Helper()
	var files [2][]byte
	for i := range files {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("slot-%d.snap", i)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		files[i] = data
	}
	return files
}

// TestSnapshotCrashRestoresPreviousWorld tears each snapshot write of a
// seeded sequence: it truncates the slot the write targeted in the
// middle of what the write touched, and flips one bit in each region of
// the finished slot. Recovery must then restore exactly the previous
// world from the other slot, and without the tear the new one. The wal
// package's TestSnapshotCrashSweep cuts such writes at every byte.
func TestSnapshotCrashRestoresPreviousWorld(t *testing.T) {
	dir, crash := t.TempDir(), t.TempDir()
	tw := newWorld(t, dir, Options{})
	w := newModelWorld(t, 33)
	var prev []byte // the previous snapshot's world
	for step := 0; step < 12; step++ {
		for n := 0; n < 3; n++ {
			w.step()
		}
		w.load(tw)
		before := slotFiles(t, dir)
		written := replayObs().written.Value()
		if err := tw.m.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		written = replayObs().written.Value() - written
		after := slotFiles(t, dir)
		world := encode(t, export(tw))
		if got := encode(t, recovered(t, dir)); !bytes.Equal(got, world) {
			t.Fatalf("step %d: the snapshot restores\n%s\nnot the exported world\n%s", step, got, world)
		}
		if prev == nil {
			prev = world
			continue
		}
		target := 0
		if !bytes.Equal(before[1], after[1]) {
			target = 1
		}
		done := after[target]
		le := binary.LittleEndian
		frozenLen, liveLen := int(le.Uint64(done[24:32])), int(le.Uint32(done[36:40]))
		end := 48 + frozenLen + liveLen
		tears := map[string][]byte{"truncated": done[:end-(int(written)-48)/2]}
		for region, at := range map[string]int{"header": 20, "frozen region": 48 + frozenLen/2, "live part": end - 1} {
			if region == "frozen region" && frozenLen == 0 {
				continue
			}
			flipped := bytes.Clone(done)
			flipped[at] ^= 0x10
			tears["bit flip in the "+region] = flipped
		}
		for how, image := range tears {
			for i, data := range [2][]byte{after[0], after[1]} {
				if i == target {
					data = image
				}
				if err := os.WriteFile(filepath.Join(crash, fmt.Sprintf("slot-%d.snap", i)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got := recovered(t, crash)
			if got == nil {
				t.Fatalf("step %d, %s: no snapshot recovered", step, how)
			}
			if enc := encode(t, got); !bytes.Equal(enc, prev) {
				t.Fatalf("step %d, %s: recovered\n%s\nnot the previous world\n%s", step, how, enc, prev)
			}
		}
		prev = world
	}
}

// TestStrictModeFlagsBadSplice: a frozen record that changed after it
// was frozen — a broken invariant, not something the control plane does
// — makes strict mode report that the snapshot no longer restores the
// exported world.
func TestStrictModeFlagsBadSplice(t *testing.T) {
	tw := newWorld(t, t.TempDir(), Options{Mode: ModeStrict})
	w := newModelWorld(t, 1)
	for jobs, _ := w.frozen(); jobs == 0; jobs, _ = w.frozen() {
		w.step()
	}
	w.load(tw)
	if err := tw.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := tw.m.VerifyError(); err != nil {
		t.Fatalf("a faithful snapshot was flagged: %v", err)
	}
	for i := range w.cs.Jobs {
		if w.cs.Jobs[i].Status.Terminal() {
			w.cs.Jobs[i].Cost += 1
		}
	}
	w.load(tw)
	if err := tw.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := tw.m.VerifyError(); err == nil {
		t.Fatal("a stale frozen record was not flagged")
	}
}

// TestSnapshotMetrics: one SnapshotNow adds one observation to the
// snapshot-duration histogram, sets the size gauge to the newest
// snapshot's size and adds what it wrote to the written-bytes counter:
// everything at a slot's first write, and afterwards only the records
// frozen since that slot was last written plus the live part.
func TestSnapshotMetrics(t *testing.T) {
	dir := t.TempDir()
	tw := newWorld(t, dir, Options{})
	w := newModelWorld(t, 5)
	for jobs, _ := w.frozen(); jobs < 3; jobs, _ = w.frozen() {
		w.step()
	}
	w.load(tw)
	tw.emit("api", journal.JobSubmitted, 0)
	ro := replayObs()
	for i, full := range []bool{true, true, false} {
		before, written := ro.seconds.Count(), ro.written.Value()
		if err := tw.m.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if got := ro.seconds.Count(); got != before+1 {
			t.Errorf("snapshot %d: histogram count = %d, want %d", i, got, before+1)
		}
		payload, _, err := wal.LatestSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := ro.bytes.Value(); got != float64(len(payload)) {
			t.Errorf("snapshot %d: bytes gauge = %v, want %d", i, got, len(payload))
		}
		frozen := len(tw.m.snaps.Frozen())
		want := int64(len(payload) - frozen + 48) // the live part and the header
		if full {
			want += int64(frozen)
		}
		if got := ro.written.Value() - written; got != want {
			t.Errorf("snapshot %d wrote %d bytes, want %d", i, got, want)
		}
	}
}

// TestFailedSlotWriteRefusesAdmission: when the snapshot at an admit
// barrier cannot be written, Enqueue refuses the job with ErrNotDurable
// and the cause. The slot file is /dev/full, which fails every write
// with ENOSPC.
func TestFailedSlotWriteRefusesAdmission(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail slot writes with")
	}
	dir := t.TempDir()
	tw := newWorld(t, dir, Options{})
	tw.ctl.Durability = tw.m
	for i := 0; i < 2; i++ {
		if err := os.Symlink("/dev/full", filepath.Join(dir, fmt.Sprintf("slot-%d.snap", i))); err != nil {
			t.Fatal(err)
		}
	}
	wl, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.ctl.DrainQueue(context.Background()) })
	job, err := tw.ctl.Enqueue(wl, plan.Goal{TimeSec: 3600, LossTarget: 0.2}, "")
	if job != nil || !errors.Is(err, cluster.ErrNotDurable) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Enqueue over a full disk = %v, %v; want ErrNotDurable caused by ENOSPC", job, err)
	}
	if jobs := tw.ctl.Jobs(); len(jobs) != 0 {
		t.Fatalf("the refused job stayed registered: %v", jobs)
	}
}

// snapshotAllocCeiling bounds how many more objects a snapshot over 500
// terminal jobs and their instances may allocate than one over 50, once
// both slots hold them. Frozen records cost no allocation after they
// are frozen, so the measured difference is 0 objects (7 per snapshot
// at either size, on linux/amd64 with go1.24); the slack absorbs runtime
// noise.
const snapshotAllocCeiling = 10

// TestSnapshotAllocsIndependentOfHistory pins the snapshot's allocation
// profile: a snapshot's allocations do not grow with the number of
// finished jobs and instances it carries.
func TestSnapshotAllocsIndependentOfHistory(t *testing.T) {
	allocs := func(jobs int) float64 {
		tw := newWorld(t, t.TempDir(), Options{})
		w := newModelWorld(t, 2)
		for i := 1; i <= jobs; i++ {
			id := fmt.Sprintf("job-%d", i)
			w.cs.Jobs = append(w.cs.Jobs, cluster.JobState{
				ID: id, TraceID: fmt.Sprintf("trace-%06d", i), Seq: i, Workload: w.wl,
				Status:  cluster.StatusSucceeded,
				History: []cluster.JobStatus{cluster.StatusPlanning, cluster.StatusRunning, cluster.StatusSucceeded},
			})
			for k := 0; k < 2; k++ {
				w.ps.NextID++
				w.ps.Instances = append(w.ps.Instances, cloud.Instance{
					ID: fmt.Sprintf("i-%08x", w.ps.NextID), Type: w.typ,
					Tags:  map[string]string{"job": id, "trace": fmt.Sprintf("trace-%06d", i)},
					State: cloud.StateTerminated, TerminatedAt: float64(i),
				})
			}
		}
		w.cs.NextJob = jobs
		w.load(tw)
		for slot := 0; slot < 2; slot++ { // freeze the history into both slots
			if err := tw.m.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := tw.m.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(500)
	t.Logf("allocs per snapshot: %.0f over 50 jobs, %.0f over 500", small, large)
	if large > small+snapshotAllocCeiling {
		t.Errorf("a snapshot over 500 finished jobs allocates %.0f objects, over 50 %.0f: more than %d apart",
			large, small, snapshotAllocCeiling)
	}
}

// TestBarrierExportSkipsFrozen: once the frozen region holds a terminal
// job or a finished instance, a barrier's exports leave it out, so a
// snapshot copies, sorts and scans only the live records; the whole
// export still carries them.
func TestBarrierExportSkipsFrozen(t *testing.T) {
	tw := newWorld(t, t.TempDir(), Options{Mode: ModeStrict})
	w := newModelWorld(t, 5)
	for jobs, insts := w.frozen(); jobs < 3 || insts < 3; jobs, insts = w.frozen() {
		w.step()
	}
	w.load(tw)
	if err := tw.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	jobs, insts := w.frozen()
	cs, ps := tw.ctl.ExportState(tw.m.jobFrozen), tw.provider.ExportState(tw.m.instFrozen)
	for _, js := range cs.Jobs {
		if js.Status.Terminal() {
			t.Errorf("barrier export carries frozen job %s (%s)", js.ID, js.Status)
		}
	}
	for _, inst := range ps.Instances {
		if inst.State.Finished() {
			t.Errorf("barrier export carries frozen instance %s (%s)", inst.ID, inst.State)
		}
	}
	if got := len(tw.ctl.ExportState(nil).Jobs) - len(cs.Jobs); got != jobs {
		t.Errorf("barrier export left out %d jobs, the frozen region holds %d", got, jobs)
	}
	if got := len(tw.provider.ExportState(nil).Instances) - len(ps.Instances); got != insts {
		t.Errorf("barrier export left out %d instances, the frozen region holds %d", got, insts)
	}
	if err := tw.m.VerifyError(); err != nil {
		t.Fatal(err)
	}
}
