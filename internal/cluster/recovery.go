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
	"slices"
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

// Recovery and launch-retry constants: a job fails on the
// (maxRecoveries+1)-th mid-run failure, and transient launch errors are
// retried up to retryAttempts times, sleeping retryBase, 2·retryBase, ...
// capped at retryMax.
const (
	maxRecoveries = 3
	retryAttempts = 4
	retryBase     = 50 * time.Millisecond
	retryMax      = time.Second
)

// RecoveryConfig tunes the controller's failure handling. The zero value
// enables recovery with defaults; set Disabled to reproduce the
// fail-on-first-fault behaviour.
type RecoveryConfig struct {
	// Disabled turns recovery off: the first mid-run instance failure
	// fails the job instead of entering StatusRecovering.
	Disabled bool
	// CheckpointEvery is the checkpoint cadence in iterations (default
	// Iterations/20, at least 1): work since the last checkpoint is lost
	// on failure and redone after recovery.
	CheckpointEvery int
	// RestartOverheadSec is the simulated cost of one recovery cycle —
	// restoring the checkpoint and restarting the training containers —
	// charged against the deadline and the bill (default 30s).
	RestartOverheadSec float64
	// Sleep is the backoff sleeper (default time.Sleep; tests inject a
	// no-op to keep retries instant).
	Sleep func(time.Duration)
}

func (rc RecoveryConfig) withDefaults(iters int) RecoveryConfig {
	if rc.CheckpointEvery <= 0 {
		rc.CheckpointEvery = max(iters/20, 1)
	}
	if rc.RestartOverheadSec <= 0 {
		rc.RestartOverheadSec = 30
	}
	if rc.Sleep == nil {
		rc.Sleep = time.Sleep
	}
	return rc
}

// runState is the mutable state of one job's trip through the pipeline,
// threaded across training segments and recovery cycles. The embedded
// SegmentState is what a durability barrier publishes; the fields beside
// it are derived again on restore (TestRunStateFieldsOutsideSnapshot).
type runState struct {
	SegmentState
	job  *Job
	w    *model.Workload
	goal plan.Goal
	prof *perf.Profile
	rc   RecoveryConfig
}

// chargeTime bills a simulated duration against the job: the deadline
// clock, the provider clock, and the Eq. 8 cost of the currently
// provisioned dockers all advance together.
func (c *Controller) chargeTime(st *runState, dt float64) {
	if dt <= 0 {
		return
	}
	c.advance(dt)
	st.Elapsed += dt
	st.Cost += plan.Cost(st.Plan.Type, st.Plan.Workers, st.Plan.PS, dt)
}

// launchRetry launches instances, retrying transient errors with capped
// exponential backoff; any other error, and a transient one that
// outlives the budget, is returned. Spot launches (spot true) bid
// bidPerHour on the market; a price above the bid
// (cloud.ErrSpotUnavailable) is not transient and returns immediately.
func (c *Controller) launchRetry(job *Job, typeName string, n int, rc RecoveryConfig, spot bool, bidPerHour float64) ([]*cloud.Instance, error) {
	delay := retryBase
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
		if !errors.Is(err, cloud.ErrTransient) || attempt >= retryAttempts {
			return nil, err
		}
		rcObs().retries.Inc()
		c.jbind(job).Emit(journal.LaunchRetry,
			journal.Fint("attempt", attempt+1), journal.Fint("count", n),
			journal.F("type", typeName), journal.F("error", err.Error()))
		rc.Sleep(delay)
		if delay *= 2; delay > retryMax {
			delay = retryMax
		}
	}
}

// runSegments executes training as a sequence of simulated segments, one
// per (re)start, until the iteration budget is met. Each segment resumes
// from the checkpointed iteration count; a segment interrupted by an
// instance failure triggers a recovery cycle.
func (c *Controller) runSegments(st *runState) error {
	jb := c.jbind(st.job)
	for st.Done < st.TotalIters {
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
		remaining := st.TotalIters - st.Done
		// An elastic run bounds the segment at the next price change-point
		// so the optimizer sees fresh prices; a static run (or one with no
		// change ahead) trains the whole remainder in one segment.
		segIters := c.elasticSegIters(st, remaining)
		jb.Emit(journal.SegmentStart,
			journal.Fint("segment", st.Recoveries),
			journal.Fint("start_iter", st.Done),
			journal.Fint("remaining", remaining),
			journal.F("type", st.Plan.Type.Name),
			journal.Fint("workers", st.Plan.Workers),
			journal.Fint("ps", st.Plan.PS))
		opts := ddnnsim.Options{
			Iterations:      segIters,
			Seed:            c.SimSeed + int64(st.Recoveries) + 1000003*int64(st.ElasticSegs),
			StartIteration:  st.Done,
			LossEvery:       max(segIters/100, 1),
			CheckpointEvery: st.rc.CheckpointEvery,
		}
		// Ask the provider — the simulation's stand-in for the cloud's
		// preemption notice — whether any of this job's instances is
		// scheduled to die, and schedule the matching docker kill.
		st.PendingPreempt = ""
		if id, at, ok := c.provider.NextPreemption(map[string]string{"job": st.job.ID}); ok {
			rel := at - c.provider.Now()
			if rel < 0 {
				rel = 0
			}
			role, idx := c.faultTarget(st.job.ID, id)
			opts.Faults = []ddnnsim.Fault{{AtSec: rel, Role: role, Index: idx}}
			st.PendingPreempt = id
		}
		sim, err := ddnnsim.Run(st.w, cloud.Homogeneous(st.Plan.Type, st.Plan.Workers, st.Plan.PS), opts)
		if err != nil {
			return err
		}
		c.advance(sim.TrainingTime)
		st.Elapsed += sim.TrainingTime
		st.BurnTrain += sim.TrainingTime
		st.Cost += plan.Cost(st.Plan.Type, st.Plan.Workers, st.Plan.PS, sim.TrainingTime)
		if sim.FinalLoss > 0 {
			st.FinalLoss = sim.FinalLoss
		}
		jb.Emit(journal.SegmentEnd,
			journal.Fint("segment", st.Recoveries),
			journal.Fint("iterations", sim.Iterations),
			journal.Ffloat("training_sec", sim.TrainingTime),
			journal.Fbool("interrupted", sim.Interrupted))
		if !sim.Interrupted {
			st.Done += sim.Iterations
			st.PendingPreempt = ""
			if st.Done >= st.TotalIters {
				return nil
			}
			// Price-bounded segment finished clean: loop back through the
			// barrier and the optimizer tick with fresh prices.
			st.ElasticSegs++
			continue
		}
		st.Done += sim.CheckpointIter
		st.Lost += sim.LostIterations
		st.SegLost = sim.LostIterations
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
	simStart := st.Elapsed
	// Land the predicted revocation in the provider (the simulated
	// segment already honoured it; forcing it here avoids floating-point
	// dust between the two clocks) and collect everything newly dead.
	if st.PendingPreempt != "" {
		_ = c.provider.Preempt(st.PendingPreempt)
	}
	var failed []cloud.Instance
	for _, inst := range c.provider.ApplyDueFaults() {
		if inst.Tags["job"] != job.ID {
			continue
		}
		if i, seen := slices.BinarySearch(st.Handled, inst.ID); !seen {
			st.Handled = slices.Insert(st.Handled, i, inst.ID)
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
		journal.Fint("checkpoint_iter", st.Done),
		journal.Fint("lost_iterations", st.SegLost))
	if st.rc.Disabled {
		return fmt.Errorf("cluster: instance %s preempted after %d/%d iterations and recovery is disabled",
			strings.Join(ids, ","), st.Done, st.TotalIters)
	}
	st.Recoveries++
	if st.Recoveries > maxRecoveries {
		return fmt.Errorf("cluster: job exceeded %d recoveries", maxRecoveries)
	}
	c.setStatus(job, StatusRecovering)
	c.mu.Lock()
	job.Recoveries = st.Recoveries
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
	st.BurnRec += st.rc.RestartOverheadSec
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
	if c.provider.Market() != nil {
		st.LastEvalSec = c.provider.Now()
		c.repriceCurrent(st)
	}

	// Deadline check: if the surviving plan's predicted time for the
	// remaining iterations exceeds the remaining budget Tg' = Tg −
	// elapsed, run Algorithm 1 again against Tg' and rebuild the cluster
	// on the cheapest plan that still makes it.
	remaining := st.TotalIters - st.Done
	budget := st.goal.TimeSec - st.Elapsed
	predicted := st.Plan.PredTime * float64(remaining) / float64(st.Plan.Iterations)
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
	c.SLO.observeRecovery(st.Elapsed - simStart)
	c.jbind(job).Emit(journal.RecoveryDone,
		journal.Fint("recovery", st.Recoveries),
		journal.Fint("resume_iter", st.Done),
		journal.Fint("remaining", remaining),
		journal.Fbool("replanned", replanned),
		journal.Ffloat("recovery_sec", st.Elapsed-simStart))
	c.setStatus(job, StatusRunning)
	st.PendingPreempt, st.SegLost = "", 0
	return nil
}

// replan re-runs Algorithm 1 with the remaining budget. It reports
// (true, nil) when a different plan was chosen and the cluster rebuilt on
// it, (false, nil) when the caller should keep the current shape, and a
// non-nil error only when the old cluster was torn down and the new one
// could not be provisioned.
func (c *Controller) replan(st *runState, remaining int, budget float64) (bool, error) {
	job := st.job
	res, choices, err := c.residualSearch(st, remaining, budget)
	if err != nil {
		return false, err
	}
	if !res.Plan.Feasible {
		// Keep the current shape; the search's plan.search.done event and
		// the cycle's recovery.done replanned=false record the outcome.
		return false, nil
	}
	p := res.Plan
	if p.Type.Name == st.Plan.Type.Name && p.Workers == st.Plan.Workers && p.PS == st.Plan.PS &&
		choices[p.Type.Name].spot == (st.Market == MarketSpot) {
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
	// TotalIters is pinned to the original loss-target budget; the new
	// plan only changes the cluster shape, not how much work remains.
	c.adopt(st, p, choices[p.Type.Name])
	if err := c.provision(st); err != nil {
		return false, fmt.Errorf("cluster: re-provisioning after re-plan: %w", err)
	}
	return true, nil
}

// residualSearch re-runs Algorithm 1 against the residual budget. The
// planner prices and times a full run of TotalIters, so the budget is
// scaled to its full-run equivalent: "feasible" then means exactly
// "the remaining iterations fit in budget seconds". A failed search
// comes back as an infeasible zero result; only a planning-catalog
// failure is an error.
func (c *Controller) residualSearch(st *runState, remaining int, budget float64) (plan.Result, map[string]marketChoice, error) {
	cat, choices, err := c.planningCatalog()
	if err != nil {
		return plan.Result{}, nil, err
	}
	res, err := c.provisioner.Search(context.Background(), plan.Request{
		Profile:   st.prof,
		Goal:      plan.Goal{TimeSec: budget * float64(st.TotalIters) / float64(remaining), LossTarget: st.goal.LossTarget},
		Predictor: c.predictor,
		Catalog:   cat,
		Journal:   c.jbind(st.job),
	})
	if err != nil {
		return plan.Result{}, choices, nil
	}
	return res, choices, nil
}

// replace launches like-for-like replacements for the dead instances,
// joins them, and re-schedules the lost pods (the spread scheduler lands
// them on the fresh nodes, which have the most free cores). If the spot
// market refuses the old bid, the whole cluster is rebuilt on-demand
// instead.
func (c *Controller) replace(st *runState, failed []cloud.Instance) error {
	job := st.job
	insts, err := c.launchRetry(job, st.Plan.Type.Name, len(failed), st.rc,
		st.Market == MarketSpot, st.BidPerHour)
	if errors.Is(err, cloud.ErrSpotUnavailable) {
		c.teardown(job)
		return c.onDemand(st, err)
	}
	if err != nil {
		return err
	}
	_, err = c.joinAndSchedule(st, insts)
	return err
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
