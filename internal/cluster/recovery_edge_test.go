package cluster

// Edge cases of the recovery state machine: work lost past the final
// checkpoint, instances dying while the job is already recovering, and a
// restart overhead that exhausts the residual deadline budget Tg'.

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// runBaseline learns the deterministic fault-free outcome of a goal: the
// finished job carries the plan shape and training time the fault
// schedules below are aimed at.
func runBaseline(t *testing.T, goal plan.Goal) *Job {
	t.Helper()
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	job := mustSubmit(t, ctl, goal)
	if job.Status != StatusSucceeded {
		t.Fatalf("baseline status = %s (%s)", job.Status, job.Err)
	}
	return job
}

func instancesOf(ctl *Controller, job *Job) int {
	dockers := job.Plan.Workers + job.Plan.PS
	return (dockers + coresPerInstance - 1) / coresPerInstance
}

func countStatus(history []JobStatus, s JobStatus) int {
	n := 0
	for _, h := range history {
		if h == s {
			n++
		}
	}
	return n
}

// TestPreemptionAfterFinalCheckpoint stretches the checkpoint cadence to
// half the iteration budget and preempts at 90% of the run: everything
// after the midpoint checkpoint is un-checkpointed, so the recovery must
// redo a large tail (but never more than one cadence) and still succeed.
func TestPreemptionAfterFinalCheckpoint(t *testing.T) {
	base := runBaseline(t, recoveryGoal)
	iters := base.Plan.Iterations
	cadence := (iters + 1) / 2

	ctl, _ := newFaultController(t, cloud.FaultPlan{
		Seed:         21,
		PreemptAtSec: base.TrainingTime * 0.9,
		PreemptNth:   0,
	})
	ctl.Recovery.CheckpointEvery = cadence
	job := mustSubmit(t, ctl, recoveryGoal)

	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	if job.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", job.Recoveries)
	}
	// At 90% of the run the job is well past the midpoint checkpoint, so
	// a substantial tail — strictly less than one cadence, comfortably
	// more than a default cadence's worth — was lost and redone.
	if job.LostIterations <= 0 || job.LostIterations >= cadence {
		t.Fatalf("lost iterations = %d, want in (0, %d)", job.LostIterations, cadence)
	}
	if job.LostIterations < iters/4 {
		t.Errorf("lost iterations = %d; a preemption at 90%% with a %d-iteration cadence should lose more",
			job.LostIterations, cadence)
	}
	// The redone tail costs real simulated time over the baseline.
	if job.TrainingTime <= base.TrainingTime {
		t.Errorf("faulted run took %.0fs, baseline %.0fs", job.TrainingTime, base.TrainingTime)
	}
}

// TestSimultaneousPreemptionsRecoverInOneCycle revokes every instance of
// a multi-instance cluster at the same instant: one recovery cycle must
// collect all of them (the Handled set prevents a second cycle from
// re-recovering the same corpses) and replace the whole cluster.
func TestSimultaneousPreemptionsRecoverInOneCycle(t *testing.T) {
	goal := plan.Goal{TimeSec: 600, LossTarget: 0.2}
	base := runBaseline(t, goal)

	// Every instance dies exactly 200 s after launch (rate 1, degenerate
	// window). The clock hook clears the fault plan once the initial
	// preemptions have fired so the replacements are safe — otherwise
	// they inherit the same death sentence and the job burns through
	// maxRecoveries.
	master := newMaster(t)
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	provider.SetFaultPlan(cloud.FaultPlan{
		Seed:          31,
		PreemptRate:   1,
		PreemptMinSec: 200,
		PreemptMaxSec: 200,
	})
	ctl := NewController(master, provider, nil, "")
	cleared := false
	ctl.AdvanceClock = func(dt float64) {
		*now += dt
		if !cleared && *now > 200 {
			provider.SetFaultPlan(cloud.FaultPlan{})
			cleared = true
		}
	}
	ctl.Recovery.Sleep = func(time.Duration) {}
	job := mustSubmit(t, ctl, goal)

	nInst := instancesOf(ctl, base)
	if nInst < 2 {
		t.Fatalf("baseline plan %d workers + %d PS yields %d instance(s); need >= 2",
			base.Plan.Workers, base.Plan.PS, nInst)
	}
	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	if job.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 cycle for %d simultaneous revocations", job.Recoveries, nInst)
	}
	if got := countStatus(job.History, StatusRecovering); got != 1 {
		t.Fatalf("history %v has %d recovering entries, want 1", job.History, got)
	}
	// The single recovery.start event must name every dead instance.
	starts := jobEventsOf(master.Journal(), job.ID, journal.RecoveryStart)
	if len(starts) != 1 {
		t.Fatalf("%d recovery.start events, want 1", len(starts))
	}
	if ids := strings.Split(fieldOf(starts[0], "instances"), ","); len(ids) != nInst {
		t.Errorf("recovery.start names %d instances (%v), want %d", len(ids), ids, nInst)
	}
}

// TestPreemptionDuringRecovery kills the replacement instance moments
// after it is launched: the job goes through a second full recovery cycle
// (running -> recovering -> running -> recovering -> running) and still
// succeeds.
func TestPreemptionDuringRecovery(t *testing.T) {
	base := runBaseline(t, recoveryGoal)
	t0 := base.TrainingTime
	firstAt := t0 * 0.5

	master := newMaster(t)
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	provider.SetFaultPlan(cloud.FaultPlan{Seed: 41, PreemptAtSec: firstAt, PreemptNth: 0})
	ctl := NewController(master, provider, nil, "")
	// Once the run reaches the first revocation, arm a second targeted
	// plan whose Nth counter restarts at installation: the next instance
	// launched — the recovery's replacement — dies 60 s into the resumed
	// segment. (SetFaultPlan keeps already scheduled preemptions.)
	armed := false
	ctl.AdvanceClock = func(dt float64) {
		*now += dt
		if !armed && *now >= firstAt*0.9 {
			provider.SetFaultPlan(cloud.FaultPlan{
				Seed:         42,
				PreemptAtSec: firstAt + ctl.Recovery.RestartOverheadSec + 30 + 60,
				PreemptNth:   0,
			})
			armed = true
		}
	}
	ctl.Recovery.Sleep = func(time.Duration) {}
	ctl.Recovery.RestartOverheadSec = 30
	job := mustSubmit(t, ctl, recoveryGoal)

	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	if job.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (initial preemption + replacement preemption)", job.Recoveries)
	}
	if got := countStatus(job.History, StatusRecovering); got != 2 {
		t.Fatalf("history %v has %d recovering entries, want 2", job.History, got)
	}
	if got := countStatus(job.History, StatusRunning); got != 3 {
		t.Fatalf("history %v has %d running entries, want 3", job.History, got)
	}
}

// TestTightBudgetReplans charges a restart overhead that leaves a
// positive residual budget Tg' too small for the surviving plan: the
// controller must re-run Algorithm 1 against Tg', journal the plan it
// chose in recovery.replanned, and finish on that plan.
func TestTightBudgetReplans(t *testing.T) {
	nInst, t0 := baselineShape(t)
	ctl, _ := newFaultController(t, lastInstancePlan(nInst, t0))
	ctl.Recovery.RestartOverheadSec = recoveryGoal.TimeSec - 0.75*t0
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	jrnl := ctl.master.Journal()
	replans := jobEventsOf(jrnl, job.ID, journal.RecoveryReplan)
	if len(replans) != 1 {
		t.Fatalf("%d recovery.replanned events, want 1", len(replans))
	}
	e := replans[0]
	if fieldOf(e, "type") != job.Plan.Type.Name || fieldOf(e, "workers") != strconv.Itoa(job.Plan.Workers) ||
		fieldOf(e, "ps") != strconv.Itoa(job.Plan.PS) {
		t.Errorf("recovery.replanned %v, want the plan the job finished on %+v", e.Fields, job.Plan)
	}
	budget, err := strconv.ParseFloat(fieldOf(e, "budget_sec"), 64)
	if err != nil || budget <= 0 || budget >= recoveryGoal.TimeSec-ctl.Recovery.RestartOverheadSec {
		t.Errorf("recovery.replanned budget_sec = %q, want in (0, Tg - overhead)", fieldOf(e, "budget_sec"))
	}
	if done := jobEventsOf(jrnl, job.ID, journal.RecoveryDone); len(done) != 1 || fieldOf(done[0], "replanned") != "true" {
		t.Errorf("recovery.done events = %v, want one with replanned=true", done)
	}
}

// TestExhaustedBudgetSkipsReplan charges a restart overhead of 2·Tg for
// the one recovery cycle, driving the residual budget Tg' = Tg − elapsed
// negative: the controller must not re-plan against a negative deadline
// (the job's only plan search is the initial one, and no
// recovery.replanned fires) but still replace the instance like-for-like,
// finish the work, and report missed-goal.
func TestExhaustedBudgetSkipsReplan(t *testing.T) {
	base := runBaseline(t, recoveryGoal)

	ctl, _ := newFaultController(t, cloud.FaultPlan{
		Seed:         51,
		PreemptAtSec: base.TrainingTime * 0.5,
		PreemptNth:   0,
	})
	ctl.Recovery.RestartOverheadSec = recoveryGoal.TimeSec * 2
	counter := &countingProvisioner{}
	ctl.UseProvisioner(counter)
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctl.Submit(w, recoveryGoal)
	if job == nil {
		t.Fatal(err)
	}

	if job.Status != StatusMissedGoal {
		t.Fatalf("status = %s (%s), want missed-goal", job.Status, job.Err)
	}
	if job.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", job.Recoveries)
	}
	if job.TrainingTime <= recoveryGoal.TimeSec {
		t.Fatalf("elapsed %.0fs does not exceed Tg %.0fs; overhead was not charged",
			job.TrainingTime, recoveryGoal.TimeSec)
	}
	// A re-plan against a negative budget fails goal validation before
	// the search journals anything, so count the searches themselves too.
	jrnl := ctl.master.Journal()
	if n := len(jobEventsOf(jrnl, job.ID, journal.PlanSearchStart)); n != 1 {
		t.Errorf("%d plan.search.start events, want only the initial one", n)
	}
	if n := atomic.LoadInt32(&counter.searches); n != 1 {
		t.Errorf("%d plan searches, want only the initial one", n)
	}
	if n := atomic.LoadInt32(&counter.candidates); n != 0 {
		t.Errorf("%d candidate lists for a like-for-like replacement, want 0", n)
	}
	if n := len(jobEventsOf(jrnl, job.ID, journal.RecoveryReplan)); n != 0 {
		t.Errorf("re-plan ran against an exhausted budget: %d recovery.replanned events", n)
	}
}
