package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// recoveryGoal is generous enough that one recovery cycle (restart
// overhead plus redone work) still lands inside 1.05·Tg.
var recoveryGoal = plan.Goal{TimeSec: 3600, LossTarget: 0.2}

// newFaultController wires a controller over a manually advanced provider
// clock: every simulated duration the controller consumes moves the
// provider clock, so scheduled preemptions fire at simulated instants.
func newFaultController(t *testing.T, fp cloud.FaultPlan) (*Controller, *cloud.Provider) {
	t.Helper()
	master := newMaster(t)
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	if !fp.IsZero() {
		provider.SetFaultPlan(fp)
	}
	ctl := NewController(master, provider, nil, "")
	ctl.AdvanceClock = func(dt float64) { *now += dt }
	ctl.Recovery.Sleep = func(time.Duration) {} // keep backoff instant in tests
	return ctl, provider
}

func mustSubmit(t *testing.T, ctl *Controller, goal plan.Goal) *Job {
	t.Helper()
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctl.Submit(w, goal)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// baselineShape learns the deterministic fault-free outcome: the plan's
// instance count and training time, which the fault schedule below is
// aimed at.
func baselineShape(t *testing.T) (nInstances int, t0 float64) {
	t.Helper()
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("baseline status = %s (%s)", job.Status, job.Err)
	}
	dockers := job.Plan.Workers + job.Plan.PS
	return (dockers + coresPerInstance - 1) / coresPerInstance, job.TrainingTime
}

// lastInstancePlan preempts the last-launched instance of the first
// launch batch mid-run. PS pods schedule onto the earliest nodes, so
// with more than one instance the victim hosts workers only.
func lastInstancePlan(nInstances int, t0 float64) cloud.FaultPlan {
	return cloud.FaultPlan{
		Seed:         11,
		PreemptAtSec: t0 * 0.5,
		PreemptNth:   nInstances - 1,
	}
}

// TestControllerRecoversFromPreemption is the end-to-end acceptance test:
// a mid-run spot preemption sends the job through recovering back to
// running, and it still succeeds within 1.05·Tg.
func TestControllerRecoversFromPreemption(t *testing.T) {
	nInst, t0 := baselineShape(t)
	ctl, provider := newFaultController(t, lastInstancePlan(nInst, t0))
	job := mustSubmit(t, ctl, recoveryGoal)

	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (err %q), want succeeded", job.Status, job.Err)
	}
	if job.TrainingTime > recoveryGoal.TimeSec*1.05 {
		t.Errorf("training time %.0fs exceeds 1.05·Tg = %.0fs", job.TrainingTime, recoveryGoal.TimeSec*1.05)
	}
	want := []JobStatus{StatusPlanning, StatusProvisioning, StatusRunning,
		StatusRecovering, StatusRunning, StatusSucceeded}
	if fmt.Sprint(job.History) != fmt.Sprint(want) {
		t.Errorf("history = %v, want %v", job.History, want)
	}
	if job.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", job.Recoveries)
	}
	if job.LostIterations <= 0 {
		t.Errorf("lost iterations = %d, want > 0 (work after the checkpoint redone)", job.LostIterations)
	}
	// The recovered run costs more than the undisturbed one would have.
	base := plan.Cost(job.Plan.Type, job.Plan.Workers, job.Plan.PS, t0)
	if job.Cost <= base {
		t.Errorf("recovered cost $%.3f not above fault-free $%.3f", job.Cost, base)
	}
	// Exactly one instance ended failed; teardown terminated the rest.
	var nFailed, nRunning int
	for _, inst := range provider.List(nil) {
		switch inst.State {
		case cloud.StateFailed:
			nFailed++
		case cloud.StateRunning:
			nRunning++
		}
	}
	if nFailed != 1 || nRunning != 0 {
		t.Errorf("instances after run: %d failed, %d running; want 1, 0", nFailed, nRunning)
	}
}

// TestRecoveryDisabledFailsJob pins the contrast case: the identical
// fault schedule with recovery off fails the job at the preemption.
func TestRecoveryDisabledFailsJob(t *testing.T) {
	nInst, t0 := baselineShape(t)
	ctl, _ := newFaultController(t, lastInstancePlan(nInst, t0))
	ctl.Recovery.Disabled = true
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctl.Submit(w, recoveryGoal)
	if err == nil {
		t.Fatal("submit succeeded despite disabled recovery and a preemption")
	}
	if job.Status != StatusFailed {
		t.Errorf("status = %s, want failed", job.Status)
	}
	if !strings.Contains(job.Err, "recovery is disabled") {
		t.Errorf("err = %q, want preemption with recovery disabled", job.Err)
	}
	last := job.History[len(job.History)-1]
	if last != StatusFailed {
		t.Errorf("history ends %s, want failed", last)
	}
}

// TestRecoveryIsDeterministic runs the preemption scenario twice from
// identical seeds on deterministic journals and requires byte-identical
// JSONL streams: controller, planner and cloud events alike.
func TestRecoveryIsDeterministic(t *testing.T) {
	nInst, t0 := baselineShape(t)
	scenario := func() ([]byte, Job) {
		ctl, provider := newFaultController(t, lastInstancePlan(nInst, t0))
		jrnl := journal.New(1<<16, journal.Deterministic())
		ctl.master.SetJournal(jrnl, nil)
		provider.SetJournal(jrnl)
		job := mustSubmit(t, ctl, recoveryGoal)
		events := jrnl.Since(0)
		if n := jrnl.LastSeq(); n != uint64(len(events)) {
			t.Fatalf("journal evicted events: %d appended, %d retained", n, len(events))
		}
		var buf []byte
		for _, e := range events {
			buf = journal.AppendJSONL(buf, e)
		}
		return buf, *job
	}
	evA, jobA := scenario()
	evB, jobB := scenario()
	if !bytes.Contains(evA, []byte(journal.RecoveryDone)) {
		t.Fatal("scenario never recovered")
	}
	if !bytes.Equal(evA, evB) {
		linesA, linesB := bytes.Split(evA, []byte("\n")), bytes.Split(evB, []byte("\n"))
		for i := 0; i < len(linesA) && i < len(linesB); i++ {
			if !bytes.Equal(linesA[i], linesB[i]) {
				t.Fatalf("journals diverge at line %d:\nA: %s\nB: %s", i+1, linesA[i], linesB[i])
			}
		}
		t.Fatalf("journal lengths differ: %d vs %d lines", len(linesA), len(linesB))
	}
	if jobA.TrainingTime != jobB.TrainingTime || jobA.Cost != jobB.Cost ||
		jobA.LostIterations != jobB.LostIterations {
		t.Errorf("outcomes differ: %.3fs/$%.4f/%d vs %.3fs/$%.4f/%d",
			jobA.TrainingTime, jobA.Cost, jobA.LostIterations,
			jobB.TrainingTime, jobB.Cost, jobB.LostIterations)
	}
}

// TestTransientLaunchRetriesSucceed exercises the backoff path: a plan
// whose first launches bounce with ErrTransient still provisions.
func TestTransientLaunchRetriesSucceed(t *testing.T) {
	ctl, _ := newFaultController(t, cloud.FaultPlan{
		Seed:                    5,
		TransientRate:           1, // every launch fails until the consecutive cap
		MaxConsecutiveTransient: 2,
	})
	before := obs.Default().Snapshot()
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (err %q)", job.Status, job.Err)
	}
	retries := metricValue(t, "cynthia_launch_retries_total") - metricValueIn(before, "cynthia_launch_retries_total")
	if retries <= 0 {
		t.Error("launch retry counter did not advance")
	}
	// Every retry is journaled once, with its attempt number.
	events := jobEventsOf(ctl.master.Journal(), job.ID, journal.LaunchRetry)
	if float64(len(events)) != retries {
		t.Errorf("%d job.launch.retry events, want one per retry (%v)", len(events), retries)
	}
	for _, e := range events {
		if n, err := strconv.Atoi(fieldOf(e, "attempt")); err != nil || n < 1 || n > retryAttempts {
			t.Errorf("job.launch.retry attempt = %q, want 1..%d", fieldOf(e, "attempt"), retryAttempts)
		}
	}
}

// TestRecoveryMetricsRegistered asserts the fault/recovery instruments
// land in the default obs registry with nonzero readings after a
// recovered run.
func TestRecoveryMetricsRegistered(t *testing.T) {
	nInst, t0 := baselineShape(t)
	before := obs.Default().Snapshot()
	ctl, _ := newFaultController(t, lastInstancePlan(nInst, t0))
	mustSubmit(t, ctl, recoveryGoal)
	for _, name := range []string{
		"cynthia_job_preemptions_total",
		"cynthia_job_recoveries_total",
		"cynthia_job_lost_iterations_total",
		"cynthia_cloud_preemptions_total",
	} {
		if metricValue(t, name) <= metricValueIn(before, name) {
			t.Errorf("metric %s did not advance over the recovered run", name)
		}
	}
	// The recovery latency histogram must have observed the cycle.
	found := false
	for _, fam := range obs.Default().Snapshot() {
		if fam.Name == "cynthia_job_recovery_seconds" {
			found = true
			if len(fam.Metrics) == 0 || fam.Metrics[0].Count == 0 {
				t.Error("cynthia_job_recovery_seconds has no observations")
			}
		}
	}
	if !found {
		t.Error("cynthia_job_recovery_seconds not registered")
	}
}

// TestJobsSortedByID pins deterministic Jobs() ordering (satellite): jobs
// come back in submission order regardless of map iteration.
func TestJobsSortedByID(t *testing.T) {
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	c := ctl
	c.mu.Lock()
	for i := 0; i < 12; i++ {
		c.nextJob++
		id := fmt.Sprintf("job-%d", c.nextJob)
		c.jobs[id] = &Job{JobState: JobState{ID: id, Seq: c.nextJob, Status: StatusPlanning}}
	}
	c.mu.Unlock()
	jobs := c.Jobs()
	if len(jobs) != 12 {
		t.Fatalf("len = %d, want 12", len(jobs))
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("job-%d", i+1); j.ID != want {
			t.Errorf("jobs[%d].ID = %s, want %s", i, j.ID, want)
		}
	}
}

func metricValue(t *testing.T, name string) float64 {
	t.Helper()
	return metricValueIn(obs.Default().Snapshot(), name)
}

func metricValueIn(snap []obs.FamilySnapshot, name string) float64 {
	for _, fam := range snap {
		if fam.Name != name {
			continue
		}
		total := 0.0
		for _, m := range fam.Metrics {
			total += m.Value
		}
		return total
	}
	return 0
}
