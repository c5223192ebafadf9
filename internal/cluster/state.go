package cluster

// state.go is the durability surface of the control plane: every piece
// of in-memory state a master crash would lose — the job table, each
// in-flight job's segment state machine, and the node/pod registry —
// exports to a serializable form and restores from it. The replay layer
// (internal/cluster/replay) snapshots these exports at durability
// barriers; on restart it rebuilds the world from the newest snapshot
// plus the write-ahead journal tail and resumes every in-flight job from
// its last barrier, including jobs that were mid-StatusRecovering.

import (
	"errors"
	"fmt"
	"sort"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/plan"
)

// ErrMasterKilled is the simulated master crash: a durability barrier
// returns it when the fault plan schedules a master kill at or before
// the current provider-clock time. It unwinds the job pipeline without
// emitting JobFailed, without teardown, and without a status transition —
// the process is dead; nothing it would have done happened.
var ErrMasterKilled = errors.New("cluster: master killed")

// Phase names a durability barrier in the job pipeline. The phase
// recorded in a SegmentState tells a restarted master where to re-enter
// the pipeline for that job.
type Phase string

// Durability barriers, in pipeline order.
const (
	// PhaseAdmit: the job was accepted onto the submission queue but no
	// worker picked it up. Resume re-enqueues it.
	PhaseAdmit Phase = "admit"
	// PhaseSegment: top of the segment loop. Resume re-enters
	// runSegments from the checkpointed iteration count.
	PhaseSegment Phase = "segment"
	// PhaseRecovery: a segment was interrupted and its accounting
	// applied; the recovery cycle has not run. Resume re-executes
	// recoverJob, then the segment loop.
	PhaseRecovery Phase = "recovery"
	// PhaseRecoveryMid is a kill-check-only barrier inside the recovery
	// cycle (after the restart overhead is charged). It is never
	// snapshotted: a kill here resumes from PhaseRecovery and re-executes
	// the whole cycle.
	PhaseRecoveryMid Phase = "recovery-mid"
	// PhaseElastic is a kill-check-only barrier between an elastic
	// re-plan decision (elastic.replan journaled) and the scale action.
	// It is never snapshotted: a kill here resumes from the preceding
	// PhaseSegment barrier, whose state predates the decision, and the
	// decision re-derives identically from the stateless price traces at
	// the same provider-clock instant — so the scale executes exactly
	// once (no double-launch, no stranded instances).
	PhaseElastic Phase = "elastic"
	// PhaseFinal: training completed; the terminal bookkeeping has not
	// run. Resume finalizes directly.
	PhaseFinal Phase = "final"
	// PhaseDone: the job reached a terminal state and its events are
	// journaled. The controller drops the segment state before this
	// barrier, so a post-Done snapshot no longer resumes the job.
	PhaseDone Phase = "done"
)

// Checkpointer receives durability-barrier callbacks from the pipeline.
// Implementations snapshot the world and report scheduled master kills;
// returning ErrMasterKilled crashes the pipeline at the barrier.
type Checkpointer interface {
	Barrier(jobID string, phase Phase) error
}

// JobState is the serializable form of a Job. The workload is embedded
// whole (not by name): scenario harnesses override sync mode and
// iteration counts on named workloads, and a by-name lookup would lose
// those overrides across a restart.
type JobState struct {
	ID             string          `json:"id"`
	TraceID        string          `json:"trace_id"`
	Workload       *model.Workload `json:"workload"`
	Goal           plan.Goal       `json:"goal"`
	Status         JobStatus       `json:"status"`
	History        []JobStatus     `json:"history,omitempty"`
	Plan           plan.Plan       `json:"plan"`
	TrainingTime   float64         `json:"training_time"`
	FinalLoss      float64         `json:"final_loss"`
	Cost           float64         `json:"cost"`
	Err            string          `json:"err,omitempty"`
	Recoveries     int             `json:"recoveries"`
	LostIterations int             `json:"lost_iterations"`
	ElasticScales  int             `json:"elastic_scales,omitempty"`
	Seq            int             `json:"seq"`
}

// SegmentState is the serializable segment state machine of one
// in-flight job, published at each durability barrier. It captures
// everything runSegments/recoverJob need to continue from the barrier:
// the surviving plan and ranked fallbacks, iteration accounting, cost
// and deadline burn, and the pending preemption of an interrupted
// segment.
type SegmentState struct {
	JobID          string      `json:"job_id"`
	Phase          Phase       `json:"phase"`
	Plan           plan.Plan   `json:"plan"`
	Ranked         []plan.Plan `json:"ranked,omitempty"`
	TotalIters     int         `json:"total_iters"`
	Done           int         `json:"done"`
	Lost           int         `json:"lost"`
	SegLost        int         `json:"seg_lost"`
	PendingPreempt string      `json:"pending_preempt,omitempty"`
	Elapsed        float64     `json:"elapsed"`
	Cost           float64     `json:"cost"`
	FinalLoss      float64     `json:"final_loss"`
	Recoveries     int         `json:"recoveries"`
	Handled        []string    `json:"handled,omitempty"`
	BurnProv       float64     `json:"burn_prov"`
	BurnTrain      float64     `json:"burn_train"`
	BurnRec        float64     `json:"burn_rec"`
	// Elastic (spot-market) state; all omitempty so static runs keep
	// their exact historical snapshot encoding.
	Market      string  `json:"market,omitempty"`
	BidPerHour  float64 `json:"bid_per_hour,omitempty"`
	LastEvalSec float64 `json:"last_eval_sec,omitempty"`
	ElasticSegs int     `json:"elastic_segs,omitempty"`
	Scales      int     `json:"elastic_scales,omitempty"`
}

// ControllerState is the serializable world of a Controller: the job
// table and every in-flight segment state machine.
type ControllerState struct {
	NextJob  int            `json:"next_job"`
	Jobs     []JobState     `json:"jobs,omitempty"`
	Segments []SegmentState `json:"segments,omitempty"`
}

// NodeState is the serializable form of a Node (Node keeps its core
// occupancy unexported).
type NodeState struct {
	Name       string             `json:"name"`
	InstanceID string             `json:"instance_id"`
	Type       cloud.InstanceType `json:"type"`
	Cores      int                `json:"cores"`
	Used       []string           `json:"used"`
}

// MasterState is the serializable node/pod registry of a Master. Join
// credentials are deliberately absent: a restarted master mints fresh
// ones, and every join after restart uses the fresh pair.
type MasterState struct {
	Nodes   []NodeState `json:"nodes,omitempty"`
	Pods    []Pod       `json:"pods,omitempty"`
	NextPod int         `json:"next_pod"`
}

// terminal reports whether a status is a job's final state.
func terminal(s JobStatus) bool {
	return s == StatusSucceeded || s == StatusMissedGoal || s == StatusFailed
}

// toSegmentState converts a live runState to its serializable form.
func (st *runState) toSegmentState() SegmentState {
	ss := SegmentState{
		JobID:          st.job.ID,
		Phase:          st.phase,
		Plan:           st.plan,
		Ranked:         append([]plan.Plan(nil), st.ranked...),
		TotalIters:     st.totalIters,
		Done:           st.done,
		Lost:           st.lost,
		SegLost:        st.segLost,
		PendingPreempt: st.pendingPreempt,
		Elapsed:        st.elapsed,
		Cost:           st.cost,
		FinalLoss:      st.finalLoss,
		Recoveries:     st.recoveries,
		BurnProv:       st.burnProv,
		BurnTrain:      st.burnTrain,
		BurnRec:        st.burnRec,
		Market:         st.market,
		BidPerHour:     st.bid,
		LastEvalSec:    st.lastEvalSec,
		ElasticSegs:    st.elasticSegs,
		Scales:         st.scales,
	}
	for id := range st.handled {
		ss.Handled = append(ss.Handled, id)
	}
	sort.Strings(ss.Handled)
	return ss
}

// ExportState snapshots the controller world. Segment states are the
// ones published at each job's last durability barrier — exactly the
// points the jobs would resume from, which makes the export
// crash-consistent even while other jobs mutate their live state.
func (c *Controller) ExportState() ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := ControllerState{NextJob: c.nextJob}
	for _, j := range c.jobs {
		cs.Jobs = append(cs.Jobs, JobState{
			ID: j.ID, TraceID: j.TraceID, Workload: j.Workload, Goal: j.Goal,
			Status: j.Status, History: append([]JobStatus(nil), j.History...),
			Plan: j.Plan, TrainingTime: j.TrainingTime, FinalLoss: j.FinalLoss,
			Cost: j.Cost, Err: j.Err, Recoveries: j.Recoveries,
			LostIterations: j.LostIterations, ElasticScales: j.ElasticScales, Seq: j.seq,
		})
	}
	sort.Slice(cs.Jobs, func(i, j int) bool { return cs.Jobs[i].Seq < cs.Jobs[j].Seq })
	for _, ss := range c.segSnaps {
		cs.Segments = append(cs.Segments, ss)
	}
	sort.Slice(cs.Segments, func(i, j int) bool { return cs.Segments[i].JobID < cs.Segments[j].JobID })
	return cs
}

// RestoreState rebuilds the job table and pending segment states from a
// snapshot. Jobs already terminal come back with closed done channels;
// in-flight jobs wait for ResumeJob (or Requeue, for PhaseAdmit jobs) to
// continue their pipeline.
func (c *Controller) RestoreState(cs ControllerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob = cs.NextJob
	c.jobs = make(map[string]*Job, len(cs.Jobs))
	for _, js := range cs.Jobs {
		job := &Job{
			ID: js.ID, TraceID: js.TraceID, Workload: js.Workload, Goal: js.Goal,
			Status: js.Status, History: append([]JobStatus(nil), js.History...),
			Plan: js.Plan, TrainingTime: js.TrainingTime, FinalLoss: js.FinalLoss,
			Cost: js.Cost, Err: js.Err, Recoveries: js.Recoveries,
			LostIterations: js.LostIterations, ElasticScales: js.ElasticScales,
			seq: js.Seq, done: make(chan struct{}),
		}
		if terminal(job.Status) {
			close(job.done)
		}
		c.jobs[job.ID] = job
		if js.Seq > c.nextJob {
			c.nextJob = js.Seq
		}
	}
	c.segSnaps = make(map[string]SegmentState, len(cs.Segments))
	for _, ss := range cs.Segments {
		c.segSnaps[ss.JobID] = ss
	}
}

// PendingJobs classifies the restored work: resume lists in-flight jobs
// with a segment state (resume via ResumeJob, in submission order),
// queued lists jobs to run from the start (re-enqueue via Requeue), and
// leftover lists terminal jobs that still hold cloud instances because
// the crash hit between finalize and teardown.
//
// A job gets its segment state at its first segment barrier, after
// planning and provisioning, so another job's barrier can snapshot it
// planning, provisioning or running with no state to resume from. Such a
// job is torn down (its launched instances would otherwise bill forever),
// set back to StatusQueued and reported as queued, like a job that was
// admitted but never started.
func (c *Controller) PendingJobs() (resume, queued, leftover []string) {
	c.mu.Lock()
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].seq < jobs[j].seq })
	segs := make(map[string]bool, len(c.segSnaps))
	for id := range c.segSnaps {
		segs[id] = true
	}
	c.mu.Unlock()
	for _, j := range jobs {
		switch {
		case segs[j.ID]:
			resume = append(resume, j.ID)
		case !terminal(j.Status):
			if j.Status != StatusQueued {
				c.teardown(j)
				c.setStatus(j, StatusQueued)
			}
			queued = append(queued, j.ID)
		default:
			for _, inst := range c.provider.List(map[string]string{"job": j.ID}) {
				if inst.State == cloud.StateRunning || inst.State == cloud.StatePending {
					leftover = append(leftover, j.ID)
					break
				}
			}
		}
	}
	return resume, queued, leftover
}

// TeardownJob releases everything a job still holds. Exported for
// restart recovery: a crash between finalize and teardown leaves a
// terminal job with live instances.
func (c *Controller) TeardownJob(id string) {
	c.teardown(&Job{ID: id})
}

// ResumeJob continues a restored in-flight job from its last durability
// barrier: it rebuilds the run state from the job's SegmentState and
// re-enters the pipeline at the recorded phase. Exactly one call per
// restored job; jobs without a pending segment state return immediately.
func (c *Controller) ResumeJob(id string) (*Job, error) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	ss, hasSeg := c.segSnaps[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no such job %s", id)
	}
	if !hasSeg || terminal(job.Status) {
		return job, nil
	}
	defer close(job.done)
	co := ctrlObs()
	co.running.Add(1)
	defer co.running.Add(-1)
	st, err := c.restoreRunState(job, ss)
	if err != nil {
		return c.failJob(&runState{job: job, handled: map[string]bool{}}, err)
	}
	run := func() (*Job, error) {
		if st.phase == PhaseRecovery {
			if err := c.recoverJob(st); err != nil {
				return nil, err
			}
		}
		if st.phase != PhaseFinal {
			if err := c.runSegments(st); err != nil {
				return nil, err
			}
		}
		return c.finishJob(st)
	}
	finished, err := run()
	if err == nil {
		return finished, nil
	}
	if errors.Is(err, ErrMasterKilled) {
		return job, err // double crash: leave the world exactly as it died
	}
	return c.failJob(st, err) // failJob emits JobFailed, then tears down
}

// restoreRunState rebuilds a live runState from a restored SegmentState.
// The profile is re-derived (profiling is deterministic and cached); the
// recovery config re-applies its defaults against the original iteration
// budget, reproducing the original checkpoint cadence.
func (c *Controller) restoreRunState(job *Job, ss SegmentState) (*runState, error) {
	prof, err := c.profileFor(job.Workload)
	if err != nil {
		return nil, err
	}
	st := &runState{
		job: job, w: job.Workload, goal: job.Goal, prof: prof,
		plan: ss.Plan, ranked: append([]plan.Plan(nil), ss.Ranked...),
		rc:         c.Recovery.withDefaults(ss.TotalIters),
		totalIters: ss.TotalIters, done: ss.Done, lost: ss.Lost,
		segLost: ss.SegLost, pendingPreempt: ss.PendingPreempt,
		elapsed: ss.Elapsed, cost: ss.Cost, finalLoss: ss.FinalLoss,
		recoveries: ss.Recoveries, handled: make(map[string]bool, len(ss.Handled)),
		burnProv: ss.BurnProv, burnTrain: ss.BurnTrain, burnRec: ss.BurnRec,
		phase:  ss.Phase,
		market: ss.Market, bid: ss.BidPerHour, lastEvalSec: ss.LastEvalSec,
		elasticSegs: ss.ElasticSegs, scales: ss.Scales,
	}
	for _, id := range ss.Handled {
		st.handled[id] = true
	}
	return st, nil
}

// barrier publishes the job's segment state and calls the durability
// checkpointer. A non-nil return is the simulated master crash. The
// segment state is maintained even without a checkpointer so that
// ExportState is always crash-consistent (and a finished job's entry is
// gone regardless of who is watching).
func (c *Controller) barrier(st *runState, phase Phase) error {
	st.phase = phase
	if phase != PhaseRecoveryMid && phase != PhaseElastic { // kill-check-only barriers
		c.mu.Lock()
		if phase == PhaseDone {
			delete(c.segSnaps, st.job.ID)
		} else {
			c.segSnaps[st.job.ID] = st.toSegmentState()
		}
		c.mu.Unlock()
	}
	if c.Durability == nil {
		return nil
	}
	return c.Durability.Barrier(st.job.ID, phase)
}

// ExportState snapshots the master's node/pod registry.
func (m *Master) ExportState() MasterState {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := MasterState{NextPod: m.nextPod}
	for _, n := range m.nodes {
		ms.Nodes = append(ms.Nodes, NodeState{
			Name: n.Name, InstanceID: n.InstanceID, Type: n.Type,
			Cores: n.Cores, Used: append([]string(nil), n.used...),
		})
	}
	sort.Slice(ms.Nodes, func(i, j int) bool { return ms.Nodes[i].Name < ms.Nodes[j].Name })
	for _, p := range m.pods {
		ms.Pods = append(ms.Pods, *p)
	}
	sort.Slice(ms.Pods, func(i, j int) bool { return ms.Pods[i].Name < ms.Pods[j].Name })
	return ms
}

// RestoreState rebuilds the node/pod registry from a snapshot. The
// bootstrap token and CA hash are not restored — the restarted master's
// fresh credentials apply to every join after the restart.
func (m *Master) RestoreState(ms MasterState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextPod = ms.NextPod
	m.nodes = make(map[string]*Node, len(ms.Nodes))
	for _, ns := range ms.Nodes {
		m.nodes[ns.Name] = &Node{
			Name: ns.Name, InstanceID: ns.InstanceID, Type: ns.Type,
			Cores: ns.Cores, used: append([]string(nil), ns.Used...),
		}
	}
	m.pods = make(map[string]*Pod, len(ms.Pods))
	for _, p := range ms.Pods {
		cp := p
		m.pods[cp.Name] = &cp
	}
}
