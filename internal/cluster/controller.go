package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/profile"
)

// ctrlMetrics instrument the job pipeline on the default registry:
// terminal statuses, per-phase durations (the lifecycle transitions
// planning -> provisioning -> running -> done), and in-flight jobs.
type ctrlMetrics struct {
	jobs    *obs.CounterVec
	phase   *obs.HistogramVec
	running *obs.Gauge
}

var (
	ctrlOnce sync.Once
	ctrl     ctrlMetrics
)

func ctrlObs() *ctrlMetrics {
	ctrlOnce.Do(func() {
		reg := obs.Default()
		ctrl = ctrlMetrics{
			jobs: reg.CounterVec("cynthia_jobs_total",
				"finished jobs by terminal status", "status"),
			phase: reg.HistogramVec("cynthia_job_phase_seconds",
				"wall time spent in each job lifecycle phase", nil, "phase"),
			running: reg.Gauge("cynthia_jobs_inflight", "jobs currently in the pipeline"),
		}
	})
	return &ctrl
}

// JobStatus is a training job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued       JobStatus = "queued"
	StatusPlanning     JobStatus = "planning"
	StatusProvisioning JobStatus = "provisioning"
	StatusRunning      JobStatus = "running"
	StatusRecovering   JobStatus = "recovering"
	StatusSucceeded    JobStatus = "succeeded"
	StatusMissedGoal   JobStatus = "missed-goal"
	StatusFailed       JobStatus = "failed"
)

// Job is one submitted training workload: its snapshot form (JobState,
// see state.go) plus the channel its waiters block on.
type Job struct {
	JobState
	done chan struct{} // closed when the pipeline reaches a terminal state
}

// snapshot returns a copy safe to hand out (History is aliased otherwise).
func (j *Job) snapshot() Job {
	cp := *j
	cp.History = append([]JobStatus(nil), j.History...)
	return cp
}

// coresPerInstance is how many dockers fit one instance (physical cores;
// vCPUs/2 on the paper's testbed).
const coresPerInstance = 2

// Controller drives jobs end to end: it profiles the workload once,
// computes a provisioning plan, launches instances, joins them to the
// master with the bootstrap token, schedules worker and PS pods, runs the
// training (in the simulator), and tears everything down.
type Controller struct {
	master      *Master
	provider    *cloud.Provider
	predictor   perf.Predictor
	provisioner plan.Provisioner
	baseType    string

	mu       sync.Mutex
	jobs     map[string]*Job
	profiles map[string]*perf.Profile // workload name -> cached profile
	nextJob  int
	// Recovery tunes the failure-recovery state machine (see recovery.go);
	// the zero value enables recovery with defaults.
	Recovery RecoveryConfig
	// AdvanceClock, when non-nil, is called with every simulated duration
	// the controller spends (training segments, restart overhead, launch
	// delays) so a manually driven provider clock tracks simulated time
	// and scheduled preemptions fire at the right moments.
	AdvanceClock func(dt float64)
	// SimSeed seeds the training simulator (recovery segments perturb it
	// so a resumed run does not replay the original noise).
	SimSeed int64
	// QueueWorkers and QueueDepth size the async submission workqueue
	// (see queue.go); zero values take DefaultQueueWorkers and
	// DefaultQueueDepth. Set them before the first Enqueue.
	QueueWorkers int
	QueueDepth   int
	queue        jobQueue
	// SLO, when non-nil, receives service-level observations as jobs
	// finish: deadline attainment against 1.05·Tg, cost overrun against
	// the planned Eq. 8 cost, per-cycle recovery time, and per-phase
	// deadline-budget burn. Nil disables SLO export.
	SLO *SLOMetrics
	// Durability, when non-nil, receives a callback at every durability
	// barrier of the pipeline (see state.go). The replay manager snapshots
	// the world there and reports scheduled master kills; nil runs the
	// pipeline without crash durability, as before.
	Durability Checkpointer
	// SpotStrategy is the bidding posture the continuous optimizer plans
	// with when the provider has a spot market attached (see elastic.go);
	// empty means pricing.Balanced. Without a market it has no effect.
	SpotStrategy pricing.Strategy
	// segSnaps holds each in-flight job's segment state as published at
	// its last durability barrier (see Controller.barrier). Guarded by mu.
	segSnaps map[string]SegmentState
}

// NewController wires a controller to a master and a cloud provider. The
// predictor defaults to perf.Cynthia; baseType is the profiling baseline
// (defaults to m4.xlarge, as in the paper).
func NewController(master *Master, provider *cloud.Provider, predictor perf.Predictor, baseType string) *Controller {
	if predictor == nil {
		predictor = perf.Cynthia{}
	}
	if baseType == "" {
		baseType = cloud.M4XLarge
	}
	return &Controller{
		master:      master,
		provider:    provider,
		predictor:   predictor,
		provisioner: plan.DefaultEngine,
		baseType:    baseType,
		jobs:        make(map[string]*Job),
		profiles:    make(map[string]*perf.Profile),
		segSnaps:    make(map[string]SegmentState),
	}
}

// UseProvisioner swaps the planning strategy (defaults to
// plan.DefaultEngine). Pass baseline.MarginalGain{} to drive the cluster
// with the Optimus-style comparator.
func (c *Controller) UseProvisioner(p plan.Provisioner) {
	if p != nil {
		c.provisioner = p
	}
}

// profileFor profiles the workload once on the baseline type and caches
// the result (the paper's "each workload requires profiling only once").
func (c *Controller) profileFor(w *model.Workload) (*perf.Profile, error) {
	c.mu.Lock()
	if p, ok := c.profiles[w.Name]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()
	base, err := c.provider.Catalog().Lookup(c.baseType)
	if err != nil {
		return nil, err
	}
	rep, err := profile.Run(w, base, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.profiles[w.Name] = rep.Profile
	c.mu.Unlock()
	return rep.Profile, nil
}

// setStatus records a lifecycle transition in the job's history and the
// flight recorder.
func (c *Controller) setStatus(job *Job, s JobStatus) {
	c.mu.Lock()
	job.Status = s
	job.History = append(job.History, s)
	c.mu.Unlock()
	c.jbind(job).Emit(journal.JobStatus, journal.F("status", string(s)))
}

// jbind returns the flight-recorder binding for a job: the master's
// journal, the job's correlation IDs, and the provider clock (simulated
// time, never wall time, so deterministic replays stay byte-identical).
func (c *Controller) jbind(job *Job) journal.Binding {
	return journal.Bind(c.master.Journal(), "controller", job.TraceID, job.ID).WithClock(c.provider.Now)
}

// advance moves the controller's notion of simulated time forward.
func (c *Controller) advance(dt float64) {
	if c.AdvanceClock != nil && dt > 0 {
		c.AdvanceClock(dt)
	}
}

// Submit runs a workload to the given goal and returns the finished job.
// The pipeline is a resumable state machine: planning and provisioning
// retry transient cloud errors with capped exponential backoff, and a
// mid-run instance failure moves the job to StatusRecovering — replace
// the instance, resume from the last checkpoint, and re-plan with the
// remaining time budget when the surviving plan can no longer meet the
// deadline (see recovery.go).
func (c *Controller) Submit(w *model.Workload, goal plan.Goal) (*Job, error) {
	return c.SubmitTraced(w, goal, "")
}

// SubmitTraced is Submit with an edge-minted correlation ID. An empty
// traceID mints a deterministic one from the submission sequence, so
// replayed scenarios produce byte-identical journals.
func (c *Controller) SubmitTraced(w *model.Workload, goal plan.Goal, traceID string) (*Job, error) {
	job, err := c.newJob(w, goal, traceID)
	if err != nil {
		return nil, err
	}
	return c.runJob(job)
}

// newJob registers a submission: it assigns the job and trace IDs,
// records the job, and emits the JobSubmitted flight-recorder event. No
// planning or provisioning happens here — runJob does the work, either
// inline (SubmitTraced) or on a workqueue worker (Enqueue).
func (c *Controller) newJob(w *model.Workload, goal plan.Goal, traceID string) (*Job, error) {
	if w == nil {
		return nil, fmt.Errorf("cluster: nil workload")
	}
	c.mu.Lock()
	c.nextJob++
	if traceID == "" {
		traceID = fmt.Sprintf("trace-%06d", c.nextJob)
	}
	job := &Job{JobState: JobState{
		ID: fmt.Sprintf("job-%d", c.nextJob), TraceID: traceID, Seq: c.nextJob,
		Workload: w, Goal: goal,
	}, done: make(chan struct{})}
	c.jobs[job.ID] = job
	c.mu.Unlock()
	c.jbind(job).Emit(journal.JobSubmitted,
		journal.F("workload", w.Name),
		journal.Ffloat("goal_sec", goal.TimeSec),
		journal.Ffloat("loss_target", goal.LossTarget))
	return job, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
// The job keeps running if the waiter gives up.
func (c *Controller) Wait(ctx context.Context, id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no such job %s", id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runJob drives a registered job through the pipeline: profile, plan,
// provision, train, teardown. Exactly one call per job. A simulated
// master kill (ErrMasterKilled from a durability barrier) unwinds
// without failing the job and without teardown — the process is dead;
// the restarted master resumes the job from its last barrier.
func (c *Controller) runJob(job *Job) (*Job, error) {
	defer close(job.done)
	w, goal := job.Workload, job.Goal
	jb := c.jbind(job)
	c.setStatus(job, StatusPlanning)

	co := ctrlObs()
	co.running.Add(1)
	defer co.running.Add(-1)
	phaseStart := time.Now()
	// mark closes one lifecycle phase and feeds its wall time to the
	// phase-duration histogram.
	mark := func(phase string) {
		co.phase.With(phase).Observe(time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}

	prof, err := c.profileFor(w)
	if err != nil {
		return c.failJob(&runState{job: job}, err)
	}
	mark("profile")
	// With a spot market attached, plan against the effective catalog
	// (spot-priced where the bidding strategy takes the market); static
	// controllers plan on the provider catalog as before.
	evalAt := c.provider.Now()
	cat, choices, err := c.planningCatalog()
	if err != nil {
		return c.failJob(&runState{job: job}, err)
	}
	req := plan.Request{
		Profile:   prof,
		Goal:      goal,
		Predictor: c.predictor,
		Catalog:   cat,
		Journal:   jb,
	}
	// The search answers with the chosen plan only; the on-demand fallback
	// asks for alternatives if, and only if, the spot market refuses a
	// spot launch.
	res, err := c.provisioner.Search(context.Background(), req)
	if err != nil {
		return c.failJob(&runState{job: job}, err)
	}
	st := &runState{
		SegmentState: SegmentState{
			JobID: job.ID, TotalIters: res.Plan.Iterations, LastEvalSec: evalAt,
		},
		job: job, w: w, goal: goal, prof: prof,
		rc: c.Recovery.withDefaults(res.Plan.Iterations),
	}
	c.adopt(st, res.Plan, choices[res.Plan.Type.Name])
	chosenFields := []journal.Field{
		journal.F("type", res.Plan.Type.Name),
		journal.Fint("workers", res.Plan.Workers),
		journal.Fint("ps", res.Plan.PS),
		journal.Fint("iterations", res.Plan.Iterations),
		journal.Ffloat("pred_sec", res.Plan.PredTime),
		journal.Ffloat("cost_usd", res.Plan.Cost),
		journal.Fbool("feasible", res.Plan.Feasible),
		journal.Fint("enumerated", res.Stats.Enumerated),
		journal.Fint("pruned", res.Stats.Pruned),
	}
	if st.Market == MarketSpot {
		// Spot-only fields, appended so static runs keep their exact
		// historical event encoding.
		chosenFields = append(chosenFields,
			journal.Fbool("spot", true),
			journal.Ffloat("bid_per_hour", st.BidPerHour))
	}
	jb.Emit(journal.PlanChosen, chosenFields...)
	c.setStatus(job, StatusProvisioning)
	mark("plan")

	if err := c.provision(st); err != nil {
		return c.failJob(st, err)
	}

	c.setStatus(job, StatusRunning)
	mark("launch")
	if err := c.runSegments(st); err != nil {
		if errors.Is(err, ErrMasterKilled) {
			return job, err
		}
		return c.failJob(st, err)
	}
	mark("train")
	return c.finishJob(st)
}

// failJob moves a job to StatusFailed, emits the terminal events,
// releases whatever the job still holds, and records the terminal state
// at the Done barrier. A master kill at that barrier supersedes the
// failure: the process died before the teardown became durable.
func (c *Controller) failJob(st *runState, err error) (*Job, error) {
	job := st.job
	c.mu.Lock()
	job.Status = StatusFailed
	job.History = append(job.History, StatusFailed)
	job.Err = err.Error()
	snap := job.snapshot()
	c.mu.Unlock()
	ctrlObs().jobs.With(string(StatusFailed)).Inc()
	c.jbind(job).Emit(journal.JobFailed, journal.F("error", err.Error()))
	c.SLO.observeJob(snap, 0, 0, 0)
	c.teardown(job)
	if kerr := c.barrier(st, PhaseDone); kerr != nil {
		return job, kerr
	}
	return job, err
}

// finishJob runs the terminal bookkeeping of a completed training run:
// outcome fields, deadline verdict against 1.05·Tg, terminal events,
// SLO export, and teardown, bracketed by the Final and Done durability
// barriers.
func (c *Controller) finishJob(st *runState) (*Job, error) {
	job := st.job
	if err := c.barrier(st, PhaseFinal); err != nil {
		return job, err
	}
	c.mu.Lock()
	job.TrainingTime = st.Elapsed
	job.FinalLoss = st.FinalLoss
	// Price the dockers the plan provisioned (Eq. 8), matching the
	// planner's predicted Cost; recovered jobs accumulate every segment,
	// restart overhead, and launch delay.
	job.Cost = st.Cost
	job.Recoveries = st.Recoveries
	job.LostIterations = st.Lost
	if st.Elapsed <= st.goal.TimeSec*1.05 {
		job.Status = StatusSucceeded
	} else {
		job.Status = StatusMissedGoal
	}
	job.History = append(job.History, job.Status)
	status := job.Status
	snap := job.snapshot()
	c.mu.Unlock()
	ctrlObs().jobs.With(string(status)).Inc()
	c.jbind(job).Emit(journal.JobFinished,
		journal.F("status", string(status)),
		journal.Ffloat("training_sec", st.Elapsed),
		journal.Ffloat("final_loss", st.FinalLoss),
		journal.Ffloat("cost_usd", snap.Cost),
		journal.Fint("recoveries", st.Recoveries),
		journal.Fint("lost_iterations", st.Lost))
	c.SLO.observeJob(snap, st.BurnProv, st.BurnTrain, st.BurnRec)
	c.teardown(job)
	if err := c.barrier(st, PhaseDone); err != nil {
		return job, err
	}
	return job, nil
}

// provision launches the cluster for st.Plan on the run state's market
// (transient launches retried), joins the nodes, and schedules one pod
// per docker. A spot launch the market refuses is rebuilt on-demand by
// onDemand. The slowest instance's readiness delay is charged against
// the deadline and the bill.
func (c *Controller) provision(st *runState) error {
	n := (st.Plan.Workers + st.Plan.PS + coresPerInstance - 1) / coresPerInstance
	insts, err := c.launchRetry(st.job, st.Plan.Type.Name, n, st.rc, st.Market == MarketSpot, st.BidPerHour)
	if st.Market == MarketSpot && errors.Is(err, cloud.ErrSpotUnavailable) {
		return c.onDemand(st, err)
	}
	if err != nil {
		return err
	}
	maxDelay, err := c.joinAndSchedule(st, insts)
	if err != nil {
		return err
	}
	c.jbind(st.job).Emit(journal.JobProvisioned,
		journal.F("type", st.Plan.Type.Name),
		journal.Fint("instances", len(insts)),
		journal.Fint("workers", st.Plan.Workers),
		journal.Fint("ps", st.Plan.PS),
		journal.Ffloat("delay_sec", maxDelay))
	return nil
}

// joinAndSchedule joins freshly launched instances, schedules PS and then
// worker pods until the job holds the plan's counts, and charges the
// slowest instance's readiness delay, which it returns.
func (c *Controller) joinAndSchedule(st *runState, insts []*cloud.Instance) (float64, error) {
	token, caHash := c.master.JoinCredentials()
	for _, inst := range insts {
		if _, err := c.master.Join("node-"+inst.ID, inst.ID, inst.Type, coresPerInstance, token, caHash); err != nil {
			return 0, err
		}
	}
	have := map[PodRole]int{}
	for _, pod := range c.master.Pods(st.job.ID) {
		have[pod.Role]++
	}
	for _, want := range []struct {
		role PodRole
		n    int
	}{{RolePS, st.Plan.PS}, {RoleWorker, st.Plan.Workers}} {
		for i := have[want.role]; i < want.n; i++ {
			if _, err := c.master.Schedule(PodSpec{Role: want.role, Job: st.job.ID, TypeName: st.Plan.Type.Name}); err != nil {
				return 0, err
			}
		}
	}
	maxDelay := 0.0
	for _, inst := range insts {
		maxDelay = max(maxDelay, inst.ReadyAt-inst.LaunchedAt)
	}
	c.chargeTime(st, maxDelay)
	st.BurnProv += maxDelay
	return maxDelay, nil
}

// teardown releases everything the job still holds: pods, nodes, and any
// instance the provider has not already reclaimed. It derives the set
// from the provider and master rather than a captured slice, so clusters
// rebuilt during recovery are torn down correctly.
func (c *Controller) teardown(job *Job) {
	for _, pod := range c.master.Pods(job.ID) {
		_ = c.master.Delete(pod.Name)
	}
	for _, inst := range c.provider.List(map[string]string{"job": job.ID}) {
		_ = c.master.Drain("node-" + inst.ID)
		if inst.State == cloud.StateRunning || inst.State == cloud.StatePending {
			_ = c.provider.Terminate(inst.ID)
		}
	}
}

// onDemand is the launch fallback. The one launch refusal the system
// produces is the spot market's: the price has risen above the bid
// between the plan and the launch. Recovery's like-for-like replacement
// of a revoked spot cluster meets it at the old bid; any provision meets
// it when the clock moves past a price change-point before the launch,
// as an elastic rebuild's charged overhead can. onDemand journals the
// refusal, adopts the first feasible candidate of the job's goal, and
// provisions it on-demand, so it runs once per refusal. It is the only
// caller of Candidates. The candidates are ranked and priced on the
// provider's on-demand catalog: spot trouble must never cascade into
// more spot trouble, and the plan's cost is what its launch bills.
func (c *Controller) onDemand(st *runState, refused error) error {
	jb := c.jbind(st.job)
	jb.Emit(journal.CapacityFallback,
		journal.F("type", st.Plan.Type.Name), journal.F("error", refused.Error()))
	ranked, err := c.provisioner.Candidates(context.Background(), plan.Request{
		Profile: st.prof, Goal: st.goal, Predictor: c.predictor, Catalog: c.provider.Catalog(),
	})
	if err != nil {
		return err
	}
	// Candidates ranks feasible plans first.
	if len(ranked) == 0 || !ranked[0].Feasible {
		return fmt.Errorf("cluster: no feasible on-demand plan: %w", refused)
	}
	p := ranked[0]
	c.adopt(st, p, marketChoice{})
	jb.Emit(journal.PlanChosen,
		journal.F("type", p.Type.Name),
		journal.Fint("workers", p.Workers),
		journal.Fint("ps", p.PS),
		journal.Ffloat("pred_sec", p.PredTime),
		journal.Ffloat("cost_usd", p.Cost),
		journal.Fbool("fallback", true))
	return c.provision(st)
}

// adopt makes p the job's plan, on the market ch names: spot under ch's
// bid if the planning catalog priced p's type on the spot market,
// on-demand otherwise. It sets the run state and, under the lock, the
// job.
func (c *Controller) adopt(st *runState, p plan.Plan, ch marketChoice) {
	st.Plan = p
	st.Market, st.BidPerHour = "", 0
	if ch.spot {
		st.Market, st.BidPerHour = MarketSpot, ch.bid
	}
	c.mu.Lock()
	st.job.Plan = p
	c.mu.Unlock()
}

// Job returns a snapshot of the job with the given id.
func (c *Controller) Job(id string) (Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("cluster: no such job %s", id)
	}
	return j.snapshot(), nil
}

// PlanRequest assembles the planning question for a workload and goal —
// cached profile, predictor, live catalog — without registering a job.
// The plan service answers these for POST /api/plan; a non-empty traceID
// correlates the flight-recorder events the search emits.
func (c *Controller) PlanRequest(w *model.Workload, goal plan.Goal, traceID string) (plan.Request, error) {
	if w == nil {
		return plan.Request{}, fmt.Errorf("cluster: nil workload")
	}
	prof, err := c.profileFor(w)
	if err != nil {
		return plan.Request{}, err
	}
	req := plan.Request{
		Profile:   prof,
		Goal:      goal,
		Predictor: c.predictor,
		Catalog:   c.provider.Catalog(),
	}
	if traceID != "" {
		req.Journal = journal.Bind(c.master.Journal(), "plan-api", traceID, "").WithClock(c.provider.Now)
	}
	return req, nil
}

// Jobs returns snapshots of all jobs in submission order.
func (c *Controller) Jobs() []Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
