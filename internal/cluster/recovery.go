package cluster

// recovery.go implements the fault-tolerant half of the controller: the
// segment loop that runs training between failures, and the recovery
// cycle that replaces preempted instances, resumes from the last
// checkpoint, and re-plans with the remaining deadline budget
// Tg' = Tg − elapsed when the surviving plan can no longer make it.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// recoveryMetrics instrument the failure path on the default registry.
type recoveryMetrics struct {
	preemptions *obs.Counter
	recoveries  *obs.Counter
	retries     *obs.Counter
	lost        *obs.Counter
	latency     *obs.Histogram
}

var (
	rcOnce sync.Once
	rcm    recoveryMetrics
)

func rcObs() *recoveryMetrics {
	rcOnce.Do(func() {
		reg := obs.Default()
		rcm = recoveryMetrics{
			preemptions: reg.Counter("cynthia_job_preemptions_total",
				"instance preemptions hitting running jobs"),
			recoveries: reg.Counter("cynthia_job_recoveries_total",
				"completed job recovery cycles"),
			retries: reg.Counter("cynthia_launch_retries_total",
				"launch retries after transient cloud errors"),
			lost: reg.Counter("cynthia_job_lost_iterations_total",
				"iterations of un-checkpointed work redone after failures"),
			latency: reg.Histogram("cynthia_job_recovery_seconds",
				"wall time per recovery cycle (detect, replace, resume)", nil),
		}
	})
	return &rcm
}

// RecoveryConfig tunes the controller's failure handling. The zero value
// enables recovery with defaults; set Disabled to reproduce the
// fail-on-first-fault behaviour.
type RecoveryConfig struct {
	// Disabled turns recovery off: the first mid-run instance failure
	// fails the job instead of entering StatusRecovering.
	Disabled bool
	// MaxRecoveries caps recovery cycles per job (default 3); one more
	// failure fails the job.
	MaxRecoveries int
	// CheckpointEvery is the checkpoint cadence in iterations (default
	// Iterations/20, at least 1): work since the last checkpoint is lost
	// on failure and redone after recovery.
	CheckpointEvery int
	// RestartOverheadSec is the simulated cost of one recovery cycle —
	// restoring the checkpoint and restarting the training containers —
	// charged against the deadline and the bill (default 30s).
	RestartOverheadSec float64
	// RetryAttempts, RetryBase, and RetryMax shape the capped exponential
	// backoff on transient launch errors: up to RetryAttempts retries,
	// sleeping RetryBase, 2·RetryBase, ... capped at RetryMax (defaults
	// 4, 50ms, 1s).
	RetryAttempts int
	RetryBase     time.Duration
	RetryMax      time.Duration
	// Sleep is the backoff sleeper (default time.Sleep; tests inject a
	// no-op to keep retries instant).
	Sleep func(time.Duration)
}

func (rc RecoveryConfig) withDefaults(iters int) RecoveryConfig {
	if rc.MaxRecoveries <= 0 {
		rc.MaxRecoveries = 3
	}
	if rc.CheckpointEvery <= 0 {
		rc.CheckpointEvery = max(iters/20, 1)
	}
	if rc.RestartOverheadSec <= 0 {
		rc.RestartOverheadSec = 30
	}
	if rc.RetryAttempts <= 0 {
		rc.RetryAttempts = 4
	}
	if rc.RetryBase <= 0 {
		rc.RetryBase = 50 * time.Millisecond
	}
	if rc.RetryMax <= 0 {
		rc.RetryMax = time.Second
	}
	if rc.Sleep == nil {
		rc.Sleep = time.Sleep
	}
	return rc
}

// runState is the mutable state of one job's trip through the pipeline,
// threaded across training segments and recovery cycles.
type runState struct {
	job  *Job
	w    *model.Workload
	goal plan.Goal
	prof *perf.Profile

	plan   plan.Plan
	ranked []plan.Plan
	rc     RecoveryConfig

	totalIters int     // iteration budget to the loss target
	done       int     // iterations safely completed (checkpoint-backed)
	lost       int     // un-checkpointed iterations redone
	elapsed    float64 // simulated seconds consumed against the deadline
	cost       float64 // accumulated Eq. 8 cost across segments
	finalLoss  float64
	recoveries int
	handled    map[string]bool // instance IDs already recovered from
	// Per-phase deadline-budget burn, in simulated seconds (SLO export):
	// launch delays, training segments, and recovery overhead.
	burnProv  float64
	burnTrain float64
	burnRec   float64
	// Durability bookkeeping (see state.go): the last barrier passed, the
	// instance whose predicted preemption interrupted the current
	// segment, and that segment's lost iterations — carried in the state
	// so a recovery cycle interrupted by a master crash replays whole.
	phase          Phase
	pendingPreempt string
	segLost        int
	// Elastic (spot-market) state: which market the current cluster is
	// provisioned on (MarketSpot or "" for on-demand), the standing bid,
	// the provider-clock time prices were last evaluated at, how many
	// price-driven segment splits this run has made (perturbs the
	// per-segment sim seed), and how many elastic rebuilds executed.
	market      string
	bid         float64
	lastEvalSec float64
	elasticSegs int
	scales      int
}

// chargeTime bills a simulated duration against the job: the deadline
// clock, the provider clock, and the Eq. 8 cost of the currently
// provisioned dockers all advance together.
func (c *Controller) chargeTime(st *runState, dt float64) {
	if dt <= 0 {
		return
	}
	c.advance(dt)
	st.elapsed += dt
	st.cost += plan.Cost(st.plan.Type, st.plan.Workers, st.plan.PS, dt)
}

// launchRetry launches instances, retrying transient errors with capped
// exponential backoff. Capacity errors are returned immediately — they
// are a standing limit, not a blip, and the caller's ranked-candidate
// fallback handles them. Spot launches (spot true) bid bidPerHour on
// the market; a price above the bid (cloud.ErrSpotUnavailable) is not
// transient either and also returns immediately.
func (c *Controller) launchRetry(job *Job, typeName string, n int, rc RecoveryConfig, spot bool, bidPerHour float64) ([]*cloud.Instance, error) {
	delay := rc.RetryBase
	var err error
	for attempt := 0; ; attempt++ {
		var insts []*cloud.Instance
		tags := map[string]string{"job": job.ID, "trace": job.TraceID}
		if spot {
			insts, err = c.provider.LaunchSpot(typeName, n, bidPerHour, tags)
		} else {
			insts, err = c.provider.Launch(typeName, n, tags)
		}
		if err == nil {
			return insts, nil
		}
		if !errors.Is(err, cloud.ErrTransient) || attempt >= rc.RetryAttempts {
			return nil, err
		}
		rcObs().retries.Inc()
		c.jbind(job).Emit(journal.LaunchRetry,
			journal.Fint("attempt", attempt+1), journal.Fint("count", n),
			journal.F("type", typeName), journal.F("error", err.Error()))
		rc.Sleep(delay)
		if delay *= 2; delay > rc.RetryMax {
			delay = rc.RetryMax
		}
	}
}

// runSegments executes training as a sequence of simulated segments, one
// per (re)start, until the iteration budget is met. Each segment resumes
// from the checkpointed iteration count; a segment interrupted by an
// instance failure triggers a recovery cycle.
func (c *Controller) runSegments(st *runState) error {
	jb := c.jbind(st.job)
	for st.done < st.totalIters {
		// Durability barrier: everything up to here is checkpoint-backed;
		// a master crash during the segment resumes from this point.
		if err := c.barrier(st, PhaseSegment); err != nil {
			return err
		}
		// Continuous optimizer tick: at a price change-point the elastic
		// controller may re-plan and rebuild the cluster here. On a flat
		// trace (or a static controller) this is a no-op.
		if err := c.elasticStep(st); err != nil {
			return err
		}
		remaining := st.totalIters - st.done
		// An elastic run bounds the segment at the next price change-point
		// so the optimizer sees fresh prices; a static run (or one with no
		// change ahead) trains the whole remainder in one segment.
		segIters := c.elasticSegIters(st, remaining)
		segBase := c.provider.Now()
		jb.Emit(journal.SegmentStart,
			journal.Fint("segment", st.recoveries),
			journal.Fint("start_iter", st.done),
			journal.Fint("remaining", remaining),
			journal.F("type", st.plan.Type.Name),
			journal.Fint("workers", st.plan.Workers),
			journal.Fint("ps", st.plan.PS))
		opts := ddnnsim.Options{
			Iterations:      segIters,
			Seed:            c.SimSeed + int64(st.recoveries) + 1000003*int64(st.elasticSegs),
			StartIteration:  st.done,
			LossEvery:       max(segIters/100, 1),
			CheckpointEvery: st.rc.CheckpointEvery,
			Journal:         jb.WithSource("ddnnsim"),
			JournalBaseSec:  segBase,
		}
		// Ask the provider — the simulation's stand-in for the cloud's
		// preemption notice — whether any of this job's instances is
		// scheduled to die, and schedule the matching docker kill.
		st.pendingPreempt = ""
		if id, at, ok := c.provider.NextPreemption(map[string]string{"job": st.job.ID}); ok {
			rel := at - c.provider.Now()
			if rel < 0 {
				rel = 0
			}
			role, idx := c.faultTarget(st.job.ID, id)
			opts.Faults = []ddnnsim.Fault{{AtSec: rel, Role: role, Index: idx}}
			st.pendingPreempt = id
		}
		sim, err := ddnnsim.Run(st.w, cloud.Homogeneous(st.plan.Type, st.plan.Workers, st.plan.PS), opts)
		if err != nil {
			return err
		}
		c.advance(sim.TrainingTime)
		st.elapsed += sim.TrainingTime
		st.burnTrain += sim.TrainingTime
		st.cost += plan.Cost(st.plan.Type, st.plan.Workers, st.plan.PS, sim.TrainingTime)
		if sim.FinalLoss > 0 {
			st.finalLoss = sim.FinalLoss
		}
		jb.Emit(journal.SegmentEnd,
			journal.Fint("segment", st.recoveries),
			journal.Fint("iterations", sim.Iterations),
			journal.Ffloat("training_sec", sim.TrainingTime),
			journal.Fbool("interrupted", sim.Interrupted))
		if !sim.Interrupted {
			st.done += sim.Iterations
			st.pendingPreempt = ""
			if st.done >= st.totalIters {
				return nil
			}
			// Price-bounded segment finished clean: loop back through the
			// barrier and the optimizer tick with fresh prices.
			st.elasticSegs++
			continue
		}
		st.done += sim.CheckpointIter
		st.lost += sim.LostIterations
		st.segLost = sim.LostIterations
		rcObs().lost.Add(int64(sim.LostIterations))
		// Durability barrier: the interrupted segment's accounting is
		// applied; a crash from here to the end of the recovery cycle
		// re-executes recoverJob whole.
		if err := c.barrier(st, PhaseRecovery); err != nil {
			return err
		}
		if err := c.recoverJob(st); err != nil {
			return err
		}
	}
	return nil
}

// recoverJob is one recovery cycle: confirm the revocation, free the dead
// nodes, charge the restart overhead, re-plan against the remaining
// budget if the surviving plan misses the deadline, and otherwise replace
// the dead instances like-for-like. Its inputs (the pending preemption
// and the interrupted segment's lost iterations) live in the runState so
// a cycle interrupted by a master crash re-executes identically after a
// restart from the PhaseRecovery barrier.
func (c *Controller) recoverJob(st *runState) error {
	job := st.job
	wallStart := time.Now() // wall latency metric only; never journaled
	simStart := st.elapsed
	// Land the predicted revocation in the provider (the simulated
	// segment already honoured it; forcing it here avoids floating-point
	// dust between the two clocks) and collect everything newly dead.
	if st.pendingPreempt != "" {
		_ = c.provider.Preempt(st.pendingPreempt)
	}
	var failed []cloud.Instance
	for _, inst := range c.provider.ApplyDueFaults() {
		if inst.Tags["job"] == job.ID && !st.handled[inst.ID] {
			st.handled[inst.ID] = true
			failed = append(failed, inst)
		}
	}
	rcObs().preemptions.Add(int64(len(failed)))
	ids := make([]string, len(failed))
	for i, inst := range failed {
		ids[i] = inst.ID
	}
	c.jbind(job).Emit(journal.RecoveryStart,
		journal.F("instances", strings.Join(ids, ",")),
		journal.Fint("checkpoint_iter", st.done),
		journal.Fint("lost_iterations", st.segLost))
	if st.rc.Disabled {
		return fmt.Errorf("cluster: instance %s preempted after %d/%d iterations and recovery is disabled",
			strings.Join(ids, ","), st.done, st.totalIters)
	}
	st.recoveries++
	if st.recoveries > st.rc.MaxRecoveries {
		return fmt.Errorf("cluster: job exceeded %d recoveries", st.rc.MaxRecoveries)
	}
	c.setStatus(job, StatusRecovering)
	c.mu.Lock()
	job.Recoveries = st.recoveries
	c.mu.Unlock()

	// Free the dead nodes: their pods are gone with the instances.
	for _, inst := range failed {
		node := "node-" + inst.ID
		for _, pod := range c.master.Pods(job.ID) {
			if pod.Node == node {
				_ = c.master.Delete(pod.Name)
			}
		}
		_ = c.master.Drain(node)
	}
	// Checkpoint restore and container restart are not free.
	c.chargeTime(st, st.rc.RestartOverheadSec)
	st.burnRec += st.rc.RestartOverheadSec
	// Kill-check-only barrier: a master crash mid-recovery (the
	// transient-server storm case — the controller dies while busiest)
	// resumes from the PhaseRecovery barrier and re-executes this whole
	// cycle; nothing is snapshotted here.
	if err := c.barrier(st, PhaseRecoveryMid); err != nil {
		return err
	}

	// An elastic run refreshes spot prices before judging the surviving
	// plan: recovery may land at a different price than the segment
	// started at, and both the deadline check and any re-plan should see
	// the market as it is now.
	if c.elasticOn() {
		now := c.provider.Now()
		c.Elastic.Market.AdvanceTo(now)
		st.lastEvalSec = now
		c.repriceCurrent(st)
	}

	// Deadline check: if the surviving plan's predicted time for the
	// remaining iterations exceeds the remaining budget Tg' = Tg −
	// elapsed, run Algorithm 1 again against Tg' and rebuild the cluster
	// on the cheapest plan that still makes it.
	remaining := st.totalIters - st.done
	budget := st.goal.TimeSec - st.elapsed
	predicted := st.plan.PredTime * float64(remaining) / float64(st.plan.Iterations)
	replanned := false
	if budget > 0 && predicted > budget {
		ok, err := c.replan(st, remaining, budget)
		if err != nil {
			return err
		}
		replanned = ok
	}
	if !replanned {
		if err := c.replace(st, failed); err != nil {
			return err
		}
	}
	rcObs().recoveries.Inc()
	rcObs().latency.Observe(time.Since(wallStart).Seconds())
	c.SLO.observeRecovery(st.elapsed - simStart)
	c.jbind(job).Emit(journal.RecoveryDone,
		journal.Fint("recovery", st.recoveries),
		journal.Fint("resume_iter", st.done),
		journal.Fint("remaining", remaining),
		journal.Fbool("replanned", replanned),
		journal.Ffloat("recovery_sec", st.elapsed-simStart))
	c.setStatus(job, StatusRunning)
	st.pendingPreempt, st.segLost = "", 0
	return nil
}

// replan re-runs Algorithm 1 with the remaining budget. It reports
// (true, nil) when a different plan was chosen and the cluster rebuilt on
// it, (false, nil) when the caller should keep the current shape, and a
// non-nil error only when the old cluster was torn down and the new one
// could not be provisioned.
func (c *Controller) replan(st *runState, remaining int, budget float64) (bool, error) {
	job := st.job
	// The planner prices and times a full run of Iterations; scale the
	// remaining budget to its full-run equivalent so that "feasible"
	// means exactly "remaining iterations fit in budget seconds".
	scaled := budget * float64(st.totalIters) / float64(remaining)
	cat, choices, cerr := c.planningCatalog()
	if cerr != nil {
		return false, cerr
	}
	req := plan.Request{
		Profile:   st.prof,
		Goal:      plan.Goal{TimeSec: scaled, LossTarget: st.goal.LossTarget},
		Predictor: c.predictor,
		Catalog:   cat,
		Journal:   c.jbind(job),
	}
	res, err := plan.SearchWith(context.Background(), c.provisioner, req)
	if err != nil || !res.Plan.Feasible {
		// Keep the current shape; the search's plan.search.done event and
		// the cycle's recovery.done replanned=false record the outcome.
		return false, nil
	}
	p := res.Plan
	if p.Type.Name == st.plan.Type.Name && p.Workers == st.plan.Workers && p.PS == st.plan.PS &&
		choices[p.Type.Name].spot == (st.market == MarketSpot) {
		return false, nil // same shape on the same market: just replace the dead instances
	}
	replanFields := []journal.Field{
		journal.Ffloat("budget_sec", budget),
		journal.F("type", p.Type.Name),
		journal.Fint("workers", p.Workers),
		journal.Fint("ps", p.PS),
		journal.Ffloat("pred_sec", p.PredTime),
		journal.Ffloat("cost_usd", p.Cost),
	}
	if ch := choices[p.Type.Name]; ch.spot {
		replanFields = append(replanFields,
			journal.Fbool("spot", true),
			journal.Ffloat("bid_per_hour", ch.bid))
	}
	c.jbind(job).Emit(journal.RecoveryReplan, replanFields...)
	c.teardown(job)
	st.plan, st.ranked = p, res.Ranked
	st.adoptChoice(choices, p.Type.Name)
	// totalIters is pinned to the original loss-target budget; the new
	// plan only changes the cluster shape, not how much work remains.
	c.mu.Lock()
	job.Plan = p
	c.mu.Unlock()
	if err := c.provision(st); err != nil {
		return false, fmt.Errorf("cluster: re-provisioning after re-plan: %w", err)
	}
	return true, nil
}

// replace launches like-for-like replacements for the dead instances,
// joins them, and re-schedules the lost pods (the spread scheduler lands
// them on the fresh nodes, which have the most free cores). If the type
// has no capacity left, the whole cluster is rebuilt via the ranked
// fallback instead.
func (c *Controller) replace(st *runState, failed []cloud.Instance) error {
	job := st.job
	insts, err := c.launchRetry(job, st.plan.Type.Name, len(failed), st.rc,
		st.market == MarketSpot, st.bid)
	if err != nil {
		if errors.Is(err, cloud.ErrCapacity) || errors.Is(err, cloud.ErrTransient) ||
			errors.Is(err, cloud.ErrSpotUnavailable) {
			c.jbind(job).Emit(journal.CapacityFallback,
				journal.F("type", st.plan.Type.Name), journal.F("error", err.Error()))
			c.teardown(job)
			return c.provision(st)
		}
		return err
	}
	token, caHash := c.master.JoinCredentials()
	for _, inst := range insts {
		if _, err := c.master.Join("node-"+inst.ID, inst.ID, inst.Type, c.CoresPerInstance, token, caHash); err != nil {
			return err
		}
	}
	var haveW, havePS int
	for _, pod := range c.master.Pods(job.ID) {
		switch pod.Role {
		case RoleWorker:
			haveW++
		case RolePS:
			havePS++
		}
	}
	for i := havePS; i < st.plan.PS; i++ {
		if _, err := c.master.Schedule(PodSpec{Role: RolePS, Job: job.ID, TypeName: st.plan.Type.Name}); err != nil {
			return err
		}
	}
	for i := haveW; i < st.plan.Workers; i++ {
		if _, err := c.master.Schedule(PodSpec{Role: RoleWorker, Job: job.ID, TypeName: st.plan.Type.Name}); err != nil {
			return err
		}
	}
	maxDelay := 0.0
	for _, inst := range insts {
		if d := inst.ReadyAt - inst.LaunchedAt; d > maxDelay {
			maxDelay = d
		}
	}
	c.chargeTime(st, maxDelay)
	st.burnProv += maxDelay
	return nil
}

// faultTarget maps a failing instance to the docker the simulator should
// kill: the first worker pod on that node, else the first PS pod.
// Ordinals are positions within the job's name-sorted pod list — they
// are reporting labels; any fault suspends the whole cluster.
func (c *Controller) faultTarget(jobID, instID string) (string, int) {
	node := "node-" + instID
	wIdx, pIdx := -1, -1
	var nw, np int
	for _, pod := range c.master.Pods(jobID) {
		switch pod.Role {
		case RoleWorker:
			if pod.Node == node && wIdx < 0 {
				wIdx = nw
			}
			nw++
		case RolePS:
			if pod.Node == node && pIdx < 0 {
				pIdx = np
			}
			np++
		}
	}
	if wIdx >= 0 {
		return "worker", wIdx
	}
	if pIdx >= 0 {
		return "ps", pIdx
	}
	return "worker", 0
}
