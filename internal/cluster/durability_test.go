package cluster

// durability_test.go proves the crash-resume contract at the controller
// layer, without the replay package: a checkpointer snapshots the world
// at every durability barrier (exactly what internal/cluster/replay
// does with SnapshotEvery=1), kills the master at a chosen barrier, and
// the test rebuilds a fresh world from that snapshot and resumes. The
// metamorphic property under test: for a kill at ANY barrier, the
// resumed run finishes with a job table and provider world bit-identical
// to the uninterrupted run's.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

// worldExport is the crash-consistent state of every layer at one
// durability barrier — what the replay layer would have snapshotted.
type worldExport struct {
	ctl      ControllerState
	master   MasterState
	provider cloud.ProviderState
}

// crashAt is a Checkpointer that snapshots the world at every
// snapshotting barrier and kills the master at the killAt-th barrier
// (1-based; 0 never kills). Mid-recovery barriers are kill-check only,
// mirroring replay.Manager, so a kill there restores the PhaseRecovery
// snapshot and re-executes the whole recovery cycle.
type crashAt struct {
	ctl      *Controller
	master   *Master
	provider *cloud.Provider
	killAt   int
	count    int
	phases   []Phase
	snap     worldExport
}

func (k *crashAt) Barrier(jobID string, phase Phase) error {
	k.count++
	k.phases = append(k.phases, phase)
	if phase != PhaseRecoveryMid && phase != PhaseElastic {
		k.snap = worldExport{k.ctl.ExportState(nil), k.master.ExportState(), k.provider.ExportState(nil)}
	}
	if k.killAt > 0 && k.count == k.killAt {
		return ErrMasterKilled
	}
	return nil
}

// newDurableWorld is newFaultController plus an attached crash
// checkpointer.
func newDurableWorld(t *testing.T, fp cloud.FaultPlan, killAt int) (*Controller, *crashAt) {
	t.Helper()
	ctl, provider := newFaultController(t, fp)
	k := &crashAt{ctl: ctl, master: ctl.master, provider: provider, killAt: killAt}
	ctl.Durability = k
	return ctl, k
}

// restoreWorld builds a completely fresh controller/master/provider and
// applies the snapshot, the way a restarted master process would.
func restoreWorld(t *testing.T, snap worldExport) *Controller {
	t.Helper()
	master := newMaster(t)
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	ctl := NewController(master, provider, nil, "")
	ctl.AdvanceClock = func(dt float64) { *now += dt }
	ctl.Recovery.Sleep = func(time.Duration) {}
	provider.RestoreState(snap.provider)
	*now = snap.provider.ClockSec
	master.RestoreState(snap.master)
	ctl.RestoreState(snap.ctl)
	return ctl
}

// resumeAll restores a world from snap and drives every pending job to
// completion, returning the controller for inspection.
func resumeAll(t *testing.T, snap worldExport) *Controller {
	t.Helper()
	ctl := restoreWorld(t, snap)
	resume, queued, leftover := ctl.PendingJobs()
	if len(queued) != 0 || len(leftover) != 0 {
		t.Fatalf("unexpected queued=%v leftover=%v", queued, leftover)
	}
	for _, id := range resume {
		if _, err := ctl.ResumeJob(id); err != nil {
			t.Fatalf("resume %s: %v", id, err)
		}
	}
	return ctl
}

// TestKillResumeAtEveryBarrier kills the master at every durability
// barrier of a run that includes a preemption recovery, resumes each
// crash from its snapshot in a fresh world, and requires the final
// controller and provider state to be bit-identical to the
// uninterrupted run's.
func TestKillResumeAtEveryBarrier(t *testing.T) {
	nInst, t0 := baselineShape(t)
	fp := lastInstancePlan(nInst, t0)

	ctl0, k0 := newDurableWorld(t, fp, 0)
	job0 := mustSubmit(t, ctl0, recoveryGoal)
	if job0.Status != StatusSucceeded {
		t.Fatalf("uninterrupted status = %s (%s)", job0.Status, job0.Err)
	}
	if job0.Recoveries == 0 {
		t.Fatal("scenario produced no recovery; the sweep would skip the recovery barriers")
	}
	want := worldExport{ctl0.ExportState(nil), k0.master.ExportState(), k0.provider.ExportState(nil)}

	seen := map[Phase]bool{}
	for killAt := 1; killAt <= k0.count; killAt++ {
		phase := k0.phases[killAt-1]
		seen[phase] = true
		ctl1, k1 := newDurableWorld(t, fp, killAt)
		_, err := mustSubmitKilled(t, ctl1)
		if !errors.Is(err, ErrMasterKilled) {
			t.Fatalf("killAt=%d (%s): err = %v, want ErrMasterKilled", killAt, phase, err)
		}
		ctl2 := resumeAll(t, k1.snap)
		got := ctl2.ExportState(nil)
		if !reflect.DeepEqual(got, want.ctl) {
			t.Errorf("killAt=%d (%s): controller state diverged from uninterrupted run\n got %+v\nwant %+v",
				killAt, phase, got, want.ctl)
		}
		if gotP := exportProvider(ctl2); !reflect.DeepEqual(gotP, want.provider) {
			t.Errorf("killAt=%d (%s): provider state diverged\n got %+v\nwant %+v",
				killAt, phase, gotP, want.provider)
		}
	}
	for _, p := range []Phase{PhaseSegment, PhaseRecovery, PhaseRecoveryMid, PhaseFinal, PhaseDone} {
		if !seen[p] {
			t.Errorf("sweep never crossed a %s barrier", p)
		}
	}
}

// failAdmit is a Checkpointer whose admission barrier cannot make the
// job durable, as with a full disk or a closed WAL.
type failAdmit struct{}

func (failAdmit) Barrier(_ string, phase Phase) error {
	if phase == PhaseAdmit {
		return errors.New("snapshot: no space left on device")
	}
	return nil
}

// TestAdmissionRejectsUndurableJob requires a submission whose admission
// barrier fails to be rejected with 503 + Retry-After and never
// registered.
func TestAdmissionRejectsUndurableJob(t *testing.T) {
	api, _ := newTestAPI(t)
	api.controller.Durability = failAdmit{}
	h := api.Handler()
	rec, _ := doJSON(t, h, "POST", "/api/jobs?wait=false",
		`{"workload": "mnist DNN", "deadline_sec": 1800, "loss_target": 0.2}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("undurable submit = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	rec, _ = doJSON(t, h, "GET", "/api/jobs", "")
	if body := strings.TrimSpace(rec.Body.String()); body != "[]" {
		t.Errorf("jobs after a rejected submit = %s, want []", body)
	}
}

// mustSubmitKilled submits the standard workload expecting the pipeline
// to die at a barrier.
func mustSubmitKilled(t *testing.T, ctl *Controller) (*Job, error) {
	t.Helper()
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	return ctl.Submit(w, recoveryGoal)
}

func exportProvider(c *Controller) cloud.ProviderState { return c.provider.ExportState(nil) }

// TestDoubleCrashResume kills the master mid-recovery, kills the
// restarted master again during the resume (before any new snapshot),
// and requires the third incarnation to still converge on the
// uninterrupted outcome.
func TestDoubleCrashResume(t *testing.T) {
	nInst, t0 := baselineShape(t)
	fp := lastInstancePlan(nInst, t0)

	ctl0, k0 := newDurableWorld(t, fp, 0)
	job0 := mustSubmit(t, ctl0, recoveryGoal)
	if job0.Status != StatusSucceeded {
		t.Fatalf("uninterrupted status = %s", job0.Status)
	}
	want := ctl0.ExportState(nil)

	// First crash: at the kill-check inside the recovery cycle, the
	// hardest restart shape (mid-StatusRecovering).
	killAt := 0
	for i, p := range k0.phases {
		if p == PhaseRecoveryMid {
			killAt = i + 1
			break
		}
	}
	if killAt == 0 {
		t.Fatal("no mid-recovery barrier in the baseline run")
	}
	ctl1, k1 := newDurableWorld(t, fp, killAt)
	if _, err := mustSubmitKilled(t, ctl1); !errors.Is(err, ErrMasterKilled) {
		t.Fatalf("first crash: err = %v", err)
	}

	// Second crash: the resumed pipeline dies at its first barrier. The
	// second incarnation took no snapshot of its own yet, so the third
	// restores the SAME snapshot — k2.snap starts as the restored world.
	ctl2 := restoreWorld(t, k1.snap)
	k2 := &crashAt{ctl: ctl2, master: ctl2.master, provider: ctl2.provider, killAt: 1, snap: k1.snap}
	ctl2.Durability = k2
	resume, _, _ := ctl2.PendingJobs()
	if len(resume) != 1 {
		t.Fatalf("resume list = %v, want one job", resume)
	}
	if _, err := ctl2.ResumeJob(resume[0]); !errors.Is(err, ErrMasterKilled) {
		t.Fatalf("second crash: err = %v, want ErrMasterKilled", err)
	}

	ctl3 := resumeAll(t, k2.snap)
	if got := ctl3.ExportState(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("after double crash, state diverged\n got %+v\nwant %+v", got, want)
	}
}

// TestKillAtAdmitRequeues crashes at the admission barrier — the job is
// durable but no worker ever picked it up — and checks the restarted
// master re-enqueues it to the same outcome as an undisturbed
// queue-path run.
func TestKillAtAdmitRequeues(t *testing.T) {
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ctl0, _ := newDurableWorld(t, cloud.FaultPlan{}, 0)
	job0, err := ctl0.Enqueue(w, recoveryGoal, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl0.Wait(ctx, job0.ID); err != nil {
		t.Fatal(err)
	}
	want := ctl0.ExportState(nil)

	ctl1, k1 := newDurableWorld(t, cloud.FaultPlan{}, 1)
	if _, err := ctl1.Enqueue(w, recoveryGoal, ""); !errors.Is(err, ErrMasterKilled) {
		t.Fatalf("admit kill: err = %v, want ErrMasterKilled", err)
	}
	if k1.phases[0] != PhaseAdmit {
		t.Fatalf("first barrier = %s, want %s", k1.phases[0], PhaseAdmit)
	}

	ctl2 := restoreWorld(t, k1.snap)
	resume, queued, leftover := ctl2.PendingJobs()
	if len(resume) != 0 || len(leftover) != 0 || len(queued) != 1 {
		t.Fatalf("pending = resume %v queued %v leftover %v, want one queued", resume, queued, leftover)
	}
	if err := ctl2.Requeue(queued[0]); err != nil {
		t.Fatal(err)
	}
	if err := ctl2.Wait(ctx, queued[0]); err != nil {
		t.Fatal(err)
	}
	if got := ctl2.ExportState(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("requeued run diverged\n got %+v\nwant %+v", got, want)
	}
}

// TestPendingJobsLeftoverTeardown covers the crash window between a
// job's terminal bookkeeping and its teardown: the restored job is
// terminal yet still holds instances, and TeardownJob releases them.
func TestPendingJobsLeftoverTeardown(t *testing.T) {
	ctl, provider := newFaultController(t, cloud.FaultPlan{})
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	ctl.RestoreState(ControllerState{
		NextJob: 1,
		Jobs: []JobState{{
			ID: "job-1", TraceID: "trace-000001", Workload: w, Goal: recoveryGoal,
			Status: StatusSucceeded, History: []JobStatus{StatusSucceeded}, Seq: 1,
		}},
	})
	if _, err := provider.Launch(m4(t).Name, 2, map[string]string{"job": "job-1"}); err != nil {
		t.Fatal(err)
	}
	resume, queued, leftover := ctl.PendingJobs()
	if len(resume) != 0 || len(queued) != 0 || !reflect.DeepEqual(leftover, []string{"job-1"}) {
		t.Fatalf("pending = %v %v %v, want leftover [job-1]", resume, queued, leftover)
	}
	ctl.TeardownJob("job-1")
	if n := liveInstances(provider, "job-1"); n != 0 {
		t.Fatalf("%d instances still live after TeardownJob", n)
	}
	if _, _, leftover := ctl.PendingJobs(); len(leftover) != 0 {
		t.Fatalf("leftover %v after teardown", leftover)
	}
	// Terminal jobs resume as a no-op; unknown jobs error.
	if job, err := ctl.ResumeJob("job-1"); err != nil || job.Status != StatusSucceeded {
		t.Fatalf("resume of terminal job: %v, %v", job, err)
	}
	if _, err := ctl.ResumeJob("job-404"); err == nil {
		t.Fatal("resume of unknown job succeeded")
	}
}

// TestPendingJobsDropsStaleSegment covers the window between a job's
// terminal status and its Done barrier: another job's barrier snapshots
// the job terminal with its segment state still present. The restart
// must treat it as finished — tear down what it holds, drop the stale
// state — rather than hand it to Requeue, which refuses finished jobs.
func TestPendingJobsDropsStaleSegment(t *testing.T) {
	ctl, provider := newFaultController(t, cloud.FaultPlan{})
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	ctl.RestoreState(ControllerState{
		NextJob: 1,
		Jobs: []JobState{{
			ID: "job-1", TraceID: "trace-000001", Workload: w, Goal: recoveryGoal,
			Status: StatusFailed, History: []JobStatus{StatusFailed}, Seq: 1,
		}},
		Segments: []SegmentState{{JobID: "job-1", Phase: PhaseSegment}},
	})
	if _, err := provider.Launch(m4(t).Name, 2, map[string]string{"job": "job-1"}); err != nil {
		t.Fatal(err)
	}
	resume, queued, leftover := ctl.PendingJobs()
	if len(resume) != 0 || len(queued) != 0 || !reflect.DeepEqual(leftover, []string{"job-1"}) {
		t.Fatalf("pending = %v %v %v, want leftover [job-1]", resume, queued, leftover)
	}
	if segs := ctl.ExportState(nil).Segments; len(segs) != 0 {
		t.Fatalf("stale segment state survived PendingJobs: %+v", segs)
	}
	ctl.TeardownJob("job-1")
	if n := liveInstances(provider, "job-1"); n != 0 {
		t.Fatalf("%d instances still live after TeardownJob", n)
	}
}

// liveInstances counts the instances tagged with job that still bill.
func liveInstances(p *cloud.Provider, job string) int {
	n := 0
	for _, inst := range p.List(map[string]string{"job": job}) {
		if inst.State == cloud.StateRunning || inst.State == cloud.StatePending {
			n++
		}
	}
	return n
}

// TestRestartMidProvisioningRequeues snapshots the world while a job is
// provisioning, as another job's barrier can: the job holds live
// instances but has no segment state yet. The restarted master must tear
// those instances down, requeue the job and drive it to a terminal state,
// not strand it non-terminal with its instances billing forever.
func TestRestartMidProvisioningRequeues(t *testing.T) {
	ctl, provider := newFaultController(t, cloud.FaultPlan{Seed: 1, LaunchDelayMaxSec: 60})
	var snap *worldExport
	advance := ctl.AdvanceClock
	ctl.AdvanceClock = func(dt float64) {
		advance(dt)
		// The first clock charge after launch is the readiness delay,
		// paid while the job is still provisioning.
		if cs := ctl.ExportState(nil); snap == nil && cs.Jobs[0].Status == StatusProvisioning {
			snap = &worldExport{cs, ctl.master.ExportState(), provider.ExportState(nil)}
		}
	}
	want := mustSubmit(t, ctl, recoveryGoal)
	if snap == nil {
		t.Fatal("no clock charge while provisioning: the snapshot was never taken")
	}
	if len(snap.ctl.Segments) != 0 {
		t.Fatalf("snapshot holds %d segment states, want 0", len(snap.ctl.Segments))
	}

	ctl2 := restoreWorld(t, *snap)
	if n := liveInstances(ctl2.provider, want.ID); n == 0 {
		t.Fatal("restored world holds no live instances for the job")
	}
	resume, queued, leftover := ctl2.PendingJobs()
	if len(resume) != 0 || len(leftover) != 0 || !reflect.DeepEqual(queued, []string{want.ID}) {
		t.Fatalf("pending = resume %v queued %v leftover %v, want queued [%s]", resume, queued, leftover, want.ID)
	}
	if n := liveInstances(ctl2.provider, want.ID); n != 0 {
		t.Fatalf("%d instances still live after PendingJobs requeued the job", n)
	}
	if err := ctl2.Requeue(want.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ctl2.Wait(ctx, want.ID); err != nil {
		t.Fatal(err)
	}
	got := ctl2.ExportState(nil).Jobs[0]
	if got.Status != want.Status {
		t.Errorf("requeued job ended %s (%s), want %s", got.Status, got.Err, want.Status)
	}
	if n := liveInstances(ctl2.provider, want.ID); n != 0 {
		t.Errorf("%d instances still live after the job finished", n)
	}
}

// TestRequeueWaitsForQueueSpace restores more queued jobs than the
// workqueue holds. Each was acknowledged before the crash, so Requeue
// must wait for a free slot rather than drop it with ErrQueueFull.
func TestRequeueWaitsForQueueSpace(t *testing.T) {
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	ctl.QueueWorkers, ctl.QueueDepth = 1, 1
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	var cs ControllerState
	for seq := 1; seq <= 3; seq++ {
		cs.Jobs = append(cs.Jobs, JobState{
			ID: fmt.Sprintf("job-%d", seq), TraceID: fmt.Sprintf("trace-%06d", seq),
			Workload: w, Goal: recoveryGoal,
			Status: StatusQueued, History: []JobStatus{StatusQueued}, Seq: seq,
		})
	}
	cs.NextJob = 3
	ctl.RestoreState(cs)
	_, queued, _ := ctl.PendingJobs()
	if len(queued) != 3 {
		t.Fatalf("queued = %v, want 3 jobs", queued)
	}
	for _, id := range queued {
		if err := ctl.Requeue(id); err != nil {
			t.Fatalf("requeue %s: %v", id, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range queued {
		if err := ctl.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	for _, js := range ctl.ExportState(nil).Jobs {
		if !js.Status.Terminal() {
			t.Errorf("%s ended %s, want a terminal status", js.ID, js.Status)
		}
	}
}

// TestRequeueRejectsFinishedJob: a terminal job's done channel is
// already closed, so running it again would close it twice.
func TestRequeueRejectsFinishedJob(t *testing.T) {
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	ctl.RestoreState(ControllerState{NextJob: 1, Jobs: []JobState{{
		ID: "job-1", Status: StatusSucceeded, History: []JobStatus{StatusSucceeded}, Seq: 1,
	}}})
	if err := ctl.Requeue("job-1"); err == nil {
		t.Fatal("Requeue accepted a finished job")
	}
}

// TestRunStateFieldsOutsideSnapshot pins what runState keeps beside its
// embedded SegmentState: each entry is derived again on restore. A new
// field fails here until someone decides whether a barrier persists it.
func TestRunStateFieldsOutsideSnapshot(t *testing.T) {
	derived := map[string]string{
		"job":  "the job table entry, restored from its JobState",
		"w":    "the job's Workload",
		"goal": "the job's Goal",
		"prof": "re-profiled on restore; profiling is deterministic and cached",
		"rc":   "the controller's RecoveryConfig defaulted against TotalIters",
	}
	typ := reflect.TypeOf(runState{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(SegmentState{}) {
			continue
		}
		if _, ok := derived[f.Name]; !ok {
			t.Errorf("runState.%s is neither in SegmentState nor derived on restore", f.Name)
		}
		delete(derived, f.Name)
	}
	for name := range derived {
		t.Errorf("allowlisted runState.%s no longer exists", name)
	}
}

// TestBarrierPublishesACopy: the segment state a barrier publishes must
// not alias the live run state, or a snapshot taken at another job's
// barrier would see this job's live state instead of its last barrier.
func TestBarrierPublishesACopy(t *testing.T) {
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	st := &runState{job: &Job{JobState: JobState{ID: "job-1"}}}
	st.JobID = "job-1"
	st.Handled = make([]string, 1, 4)
	st.Handled[0] = "i-2"
	if err := ctl.barrier(st, PhaseSegment); err != nil {
		t.Fatal(err)
	}
	st.Handled = slices.Insert(st.Handled, 0, "i-1")
	segs := ctl.ExportState(nil).Segments
	if len(segs) != 1 {
		t.Fatalf("exported %d segment states, want 1", len(segs))
	}
	if got := segs[0]; !slices.Equal(got.Handled, []string{"i-2"}) {
		t.Errorf("published state follows the live one: handled %v", got.Handled)
	}
}
