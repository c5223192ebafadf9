package cluster

// state.go is the durability surface of the control plane: every piece
// of in-memory state a master crash would lose — the job table, each
// in-flight job's segment state machine, and the node/pod registry —
// exports to a serializable form and restores from it. The live structs
// embed those forms (Job embeds JobState, runState SegmentState, Node
// NodeState), so each persisted field is declared once and export and
// restore only copy structs, deep-copying their slices. The replay layer
// (internal/cluster/replay) snapshots these exports at durability
// barriers; on restart it rebuilds the world from the newest snapshot
// plus the write-ahead journal tail and resumes every in-flight job from
// its last barrier, including jobs that were mid-StatusRecovering.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

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
	ID string `json:"id"`
	// TraceID correlates every flight-recorder event the job produced
	// across the API edge, planner, controller, cloud provider, and
	// training simulator. Minted at the edge (or deterministically from
	// the submission sequence when the edge supplies none).
	TraceID  string          `json:"trace_id"`
	Workload *model.Workload `json:"workload"`
	Goal     plan.Goal       `json:"goal"`
	Status   JobStatus       `json:"status"`
	// History is every lifecycle state the job passed through, in order
	// (a recovered job reads planning, provisioning, running, recovering,
	// running, succeeded).
	History []JobStatus `json:"history,omitempty"`
	// Plan is the provisioning decision (valid from StatusProvisioning).
	Plan plan.Plan `json:"plan"`
	// Actual training outcome (valid once finished).
	TrainingTime float64 `json:"training_time"`
	FinalLoss    float64 `json:"final_loss"`
	Cost         float64 `json:"cost"`
	Err          string  `json:"err,omitempty"`
	// Recoveries counts completed recovery cycles; LostIterations is the
	// un-checkpointed work redone across them.
	Recoveries     int `json:"recoveries"`
	LostIterations int `json:"lost_iterations"`
	// ElasticScales counts mid-training cluster rebuilds driven by
	// spot-price moves (not by failures).
	ElasticScales int `json:"elastic_scales,omitempty"`
	Seq           int `json:"seq"` // submission order, for deterministic Jobs() listing
}

// SegmentState is the serializable segment state machine of one
// in-flight job, published at each durability barrier. It captures
// everything runSegments/recoverJob need to continue from the barrier:
// the surviving plan, iteration accounting, cost and deadline burn, and
// the pending preemption of an interrupted segment.
type SegmentState struct {
	JobID      string    `json:"job_id"`
	Phase      Phase     `json:"phase"` // the last barrier passed
	Plan       plan.Plan `json:"plan"`
	TotalIters int       `json:"total_iters"` // iteration budget to the loss target
	Done       int       `json:"done"`        // iterations safely completed (checkpoint-backed)
	Lost       int       `json:"lost"`        // un-checkpointed iterations redone
	// SegLost and PendingPreempt are the interrupted segment's lost
	// iterations and the instance whose predicted preemption interrupted
	// it, carried so a recovery cycle cut by a master crash replays whole.
	SegLost        int      `json:"seg_lost"`
	PendingPreempt string   `json:"pending_preempt,omitempty"`
	Elapsed        float64  `json:"elapsed"` // simulated seconds consumed against the deadline
	Cost           float64  `json:"cost"`    // accumulated Eq. 8 cost across segments
	FinalLoss      float64  `json:"final_loss"`
	Recoveries     int      `json:"recoveries"`
	Handled        []string `json:"handled,omitempty"` // instance IDs already recovered from, sorted
	// Per-phase deadline-budget burn, in simulated seconds (SLO export):
	// launch delays, training segments, and recovery overhead.
	BurnProv  float64 `json:"burn_prov"`
	BurnTrain float64 `json:"burn_train"`
	BurnRec   float64 `json:"burn_rec"`
	// Elastic (spot-market) state, all omitempty so static runs keep
	// their exact historical snapshot encoding: the market the current
	// cluster runs on (MarketSpot or "" for on-demand), the standing bid,
	// the provider-clock time prices were last evaluated at, how many
	// price-driven segment splits this run made (perturbs the per-segment
	// sim seed), and how many elastic rebuilds executed.
	Market      string  `json:"market,omitempty"`
	BidPerHour  float64 `json:"bid_per_hour,omitempty"`
	LastEvalSec float64 `json:"last_eval_sec,omitempty"`
	ElasticSegs int     `json:"elastic_segs,omitempty"`
	Scales      int     `json:"elastic_scales,omitempty"`
}

// clone deep-copies the slices the live run state keeps changing, so a
// published barrier state never aliases it.
func (ss SegmentState) clone() SegmentState {
	ss.Handled = slices.Clone(ss.Handled)
	return ss
}

// ControllerState is the serializable world of a Controller: the job
// table and every in-flight segment state machine.
type ControllerState struct {
	NextJob  int            `json:"next_job"`
	Jobs     []JobState     `json:"jobs,omitempty"`
	Segments []SegmentState `json:"segments,omitempty"`
}

// NodeState is the serializable form of a Node.
type NodeState struct {
	Name       string             `json:"name"`
	InstanceID string             `json:"instance_id"`
	Type       cloud.InstanceType `json:"type"`
	// Cores is the number of physical cores, i.e. schedulable docker
	// slots (vCPUs/2 with hyper-threading, per the paper's testbed).
	Cores int      `json:"cores"`
	Used  []string `json:"used"` // pod name per core, "" if free
}

// MasterState is the serializable node/pod registry of a Master. Join
// credentials are deliberately absent: a restarted master mints fresh
// ones, and every join after restart uses the fresh pair.
type MasterState struct {
	Nodes   []NodeState `json:"nodes,omitempty"`
	Pods    []Pod       `json:"pods,omitempty"`
	NextPod int         `json:"next_pod"`
}

// Terminal reports whether a status is a job's final state. A job's
// JobState never changes once its status is terminal: finishJob and
// failJob are its last writers.
func (s JobStatus) Terminal() bool {
	return s == StatusSucceeded || s == StatusMissedGoal || s == StatusFailed
}

// ExportState snapshots the controller world. Segment states are the
// ones published at each job's last durability barrier — exactly the
// points the jobs would resume from, which makes the export
// crash-consistent even while other jobs mutate their live state.
//
// A live job's History is deep-copied. A terminal job's is shared: no
// code appends to it again, so the export is as read-only as the job
// and costs no allocation per finished job. frozen, when non-nil, names
// terminal jobs the caller already holds a copy of (a snapshot writer's
// frozen region); they are left out, so the export copies and sorts only
// the live jobs, however long the history. Every other caller passes nil.
func (c *Controller) ExportState(frozen func(id string) bool) ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := ControllerState{NextJob: c.nextJob}
	for _, j := range c.jobs {
		js := j.JobState
		if !js.Status.Terminal() {
			js.History = slices.Clone(js.History)
		} else if frozen != nil && frozen(js.ID) {
			continue
		}
		cs.Jobs = append(cs.Jobs, js)
	}
	slices.SortFunc(cs.Jobs, func(a, b JobState) int { return cmp.Compare(a.Seq, b.Seq) })
	for _, ss := range c.segSnaps {
		cs.Segments = append(cs.Segments, ss)
	}
	slices.SortFunc(cs.Segments, func(a, b SegmentState) int { return strings.Compare(a.JobID, b.JobID) })
	return cs
}

// RestoreState rebuilds the job table and pending segment states from a
// snapshot. Jobs already terminal come back with closed done channels;
// in-flight jobs wait for Requeue (or a direct ResumeJob) to continue
// their pipeline.
func (c *Controller) RestoreState(cs ControllerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob = cs.NextJob
	c.jobs = make(map[string]*Job, len(cs.Jobs))
	for _, js := range cs.Jobs {
		js.History = slices.Clone(js.History)
		job := &Job{JobState: js, done: make(chan struct{})}
		if job.Status.Terminal() {
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
// with a segment state (in submission order), queued lists jobs to run
// from the start — Requeue takes both, resume first — and
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
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Seq < jobs[j].Seq })
	segs := make(map[string]bool, len(c.segSnaps))
	for id := range c.segSnaps {
		segs[id] = true
	}
	c.mu.Unlock()
	for _, j := range jobs {
		switch {
		case j.Status.Terminal():
			// A job is terminal before its Done barrier drops its segment
			// state, so another job's barrier can snapshot both; the
			// outcome is final and the segment state is stale.
			if segs[j.ID] {
				c.mu.Lock()
				delete(c.segSnaps, j.ID)
				c.mu.Unlock()
			}
			for _, inst := range c.provider.List(map[string]string{"job": j.ID}) {
				if inst.State == cloud.StateRunning || inst.State == cloud.StatePending {
					leftover = append(leftover, j.ID)
					break
				}
			}
		case segs[j.ID]:
			resume = append(resume, j.ID)
		default:
			if j.Status != StatusQueued {
				c.teardown(j)
				c.setStatus(j, StatusQueued)
			}
			queued = append(queued, j.ID)
		}
	}
	return resume, queued, leftover
}

// TeardownJob releases everything a job still holds. Exported for
// restart recovery: a crash between finalize and teardown leaves a
// terminal job with live instances.
func (c *Controller) TeardownJob(id string) {
	c.teardown(&Job{JobState: JobState{ID: id}})
}

// ResumeJob continues a restored job. Exactly one call per restored job;
// terminal jobs return immediately.
func (c *Controller) ResumeJob(id string) (*Job, error) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no such job %s", id)
	}
	return c.resumeOrRun(job)
}

// resumeOrRun runs a non-terminal job to its outcome. A job with a
// segment state continues from its last durability barrier: the run
// state is rebuilt from the SegmentState and the pipeline re-entered at
// the recorded phase. Any other job runs from the start.
func (c *Controller) resumeOrRun(job *Job) (*Job, error) {
	c.mu.Lock()
	ss, hasSeg := c.segSnaps[job.ID]
	done := job.Status.Terminal()
	c.mu.Unlock()
	if done {
		return job, nil
	}
	if !hasSeg {
		return c.runJob(job)
	}
	defer close(job.done)
	co := ctrlObs()
	co.running.Add(1)
	defer co.running.Add(-1)
	st, err := c.restoreRunState(job, ss)
	if err != nil {
		return c.failJob(&runState{job: job}, err)
	}
	run := func() (*Job, error) {
		if st.Phase == PhaseRecovery {
			if err := c.recoverJob(st); err != nil {
				return nil, err
			}
		}
		if st.Phase != PhaseFinal {
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
	return &runState{
		SegmentState: ss.clone(),
		job:          job, w: job.Workload, goal: job.Goal, prof: prof,
		rc: c.Recovery.withDefaults(ss.TotalIters),
	}, nil
}

// barrier publishes the job's segment state and calls the durability
// checkpointer. A non-nil return is the simulated master crash. The
// segment state is maintained even without a checkpointer so that
// ExportState is always crash-consistent (and a finished job's entry is
// gone regardless of who is watching).
func (c *Controller) barrier(st *runState, phase Phase) error {
	st.Phase = phase
	if phase != PhaseRecoveryMid && phase != PhaseElastic { // kill-check-only barriers
		c.mu.Lock()
		if phase == PhaseDone {
			delete(c.segSnaps, st.job.ID)
		} else {
			c.segSnaps[st.job.ID] = st.SegmentState.clone()
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
		ns := n.NodeState
		ns.Used = slices.Clone(ns.Used)
		ms.Nodes = append(ms.Nodes, ns)
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
		ns.Used = slices.Clone(ns.Used)
		m.nodes[ns.Name] = &Node{NodeState: ns}
	}
	m.pods = make(map[string]*Pod, len(ms.Pods))
	for _, p := range ms.Pods {
		cp := p
		m.pods[cp.Name] = &cp
	}
}
