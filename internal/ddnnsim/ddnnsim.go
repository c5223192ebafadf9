// Package ddnnsim simulates distributed DNN training under the parameter
// server architecture, reproducing the system the Cynthia paper measures on
// EC2: a cluster of single-core worker dockers training a model with BSP or
// ASP synchronization against one or more PS dockers.
//
// Rather than evaluating closed-form formulas, ddnnsim runs a flow-level
// discrete-event simulation (internal/flow): worker compute, gradient
// pushes, parameter pulls, and PS-side aggregation CPU work all contend on
// shared fluid resources (worker CPUs, worker NICs, PS NICs, PS CPUs). The
// contention effects the paper reports — PS NIC saturation, PS CPU
// saturation, stragglers blocking BSP barriers, the computation/
// communication imbalance — emerge from the simulation, which is what makes
// the prediction-accuracy experiments (Figs. 6-10) meaningful: the Cynthia,
// Optimus, and Paleo models are judged against behaviour they do not
// generate themselves.
package ddnnsim

import (
	"fmt"
	"math/rand"

	"cynthia/internal/cloud"
	"cynthia/internal/flow"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
)

// Trace-track process IDs: the exported Chrome trace groups spans into a
// cluster-level track (rounds/barriers), one track per worker, and one
// per PS docker.
const (
	pidCluster = 0
	pidWorkers = 1
	pidPS      = 2
)

// ClusterSpec aliases cloud.ClusterSpec: the dockers of a training
// cluster, one docker per physical core.
type ClusterSpec = cloud.ClusterSpec

// Homogeneous returns a cluster of nwk workers and nps PS dockers, all of
// the same instance type.
func Homogeneous(t cloud.InstanceType, nwk, nps int) ClusterSpec {
	return cloud.Homogeneous(t, nwk, nps)
}

// Heterogeneous returns the paper's straggler cluster: ⌈n/2⌉ fast workers
// and ⌊n/2⌋ slow workers of the given types (Fig. 1, Fig. 9).
func Heterogeneous(fast, slow cloud.InstanceType, nwk, nps int) ClusterSpec {
	return cloud.Heterogeneous(fast, slow, nwk, nps)
}

// Fault schedules the loss of one docker at a simulated time: a worker or
// PS process killed mid-run, as a spot revocation of its host instance
// would. The simulation halts at that instant — a dead PS shard wedges
// every worker, and a dead worker wedges the BSP barrier — and the run
// returns with Result.Interrupted set so a controller can replace the
// docker and resume from the last checkpoint.
type Fault struct {
	// AtSec is the simulated time of the kill (clamped to a hair above
	// zero; the flow engine treats a non-positive horizon as unbounded).
	AtSec float64
	// Role is "worker" or "ps"; Index is the docker's ordinal within that
	// role. Both are reporting labels — any fault suspends the whole
	// cluster regardless of which docker died.
	Role  string
	Index int
}

// Options tune a simulation run.
type Options struct {
	// Iterations overrides the workload's iteration budget when > 0.
	Iterations int
	// StartIteration offsets the loss curve when resuming a run from a
	// checkpoint: iteration i of this segment reports the loss of global
	// iteration StartIteration+i, so spliced segments reproduce the loss
	// trajectory of one uninterrupted run.
	StartIteration int
	// CheckpointEvery, when > 0, checkpoints model state every k
	// iterations. An interrupted run then reports CheckpointIter — the
	// last iteration safely on disk — and the work after it as lost.
	CheckpointEvery int
	// Faults schedules docker kills at simulated times (see Fault). The
	// earliest fault halts the run; later entries are ignored.
	Faults []Fault
	// TraceBin, when > 0, records per-PS NIC throughput time series with
	// the given bin width in seconds (Figs. 2 and 7).
	TraceBin float64
	// Seed drives the loss-curve noise. The same seed reproduces the
	// same run exactly.
	Seed int64
	// Horizon, when > 0, aborts the simulation at that simulated time.
	Horizon float64
	// DisablePSCPU turns off parameter-server CPU costs (ablation: how
	// much of the predicted behaviour comes from modeling the PS CPU).
	DisablePSCPU bool
	// NoOverlap disables the BSP computation/communication pipeline:
	// round r+1's computation waits for round r's barrier, the behaviour
	// of a framework without SyncReplicasOptimizer-style overlap (paper
	// footnote 2). Iteration time then approaches tcomp + tcomm — the
	// regime the Paleo and Optimus models assume. Ignored for ASP,
	// which is always sequential per worker.
	NoOverlap bool
	// LossEvery controls loss-curve density: record every k-th
	// iteration (default 1 = every iteration).
	LossEvery int
	// RecordIterations captures a per-iteration record (timings and
	// breakdown) in Result.IterRecords.
	RecordIterations bool
	// Trace, when non-nil, receives the simulated training timeline as
	// structured spans on the simulated clock: per-worker compute, push,
	// and pull phases, PS-side aggregation CPU work, and per-round
	// barrier spans. Export it with Tracer.WriteJSON and open the file
	// in chrome://tracing or Perfetto.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives end-of-run gauges: per-resource
	// CPU/NIC utilization (the measured Eq. 6-7 demand/capacity terms),
	// training time, iteration count, and engine event counters.
	Metrics *obs.Registry
	// Journal, when bound, receives flight-recorder events for the
	// segment: one sim.checkpoint per CheckpointEvery crossing (stamped at
	// the iteration's completion instant), sim.interrupted when a fault
	// halts the run, and sim.segment.done on normal completion. Events are
	// emitted after the engine run from the calling goroutine, in
	// iteration order, so the journal is deterministic.
	Journal journal.Binding
	// JournalBaseSec offsets journal timestamps onto the caller's clock:
	// the simulation clock starts at 0 every segment, but the controller's
	// journal runs on the provider clock.
	JournalBaseSec float64
}

// IterRecord is one iteration's timing breakdown: for BSP a training
// round (ComputeSec is the slowest worker's compute, CommSec the push/
// aggregate/pull span to the barrier); for ASP one worker's iteration.
type IterRecord struct {
	// Index is the completion order (0-based).
	Index int
	// Worker is the executing worker for ASP; -1 for BSP rounds.
	Worker int
	// EndSec is the completion time.
	EndSec float64
	// ComputeSec and CommSec are the phase durations.
	ComputeSec float64
	CommSec    float64
}

// LossPoint is one sample of the training loss curve.
type LossPoint struct {
	Iter int
	Time float64
	Loss float64
}

// Result summarizes one simulated training run.
type Result struct {
	// TrainingTime is the makespan in seconds.
	TrainingTime float64
	// Iterations is the number of completed iterations.
	Iterations int
	// MeanIterTime is TrainingTime / Iterations.
	MeanIterTime float64
	// ComputeTime is the summed per-iteration computation time: for BSP
	// the slowest worker's compute per round, for ASP the mean compute
	// duration per iteration. Because computation and communication
	// overlap, ComputeTime + CommTime can exceed TrainingTime (as in the
	// paper's Fig. 3).
	ComputeTime float64
	// CommTime is the summed per-iteration communication time (push +
	// aggregate + pull), measured from first gradient byte to barrier
	// for BSP and per-iteration for ASP.
	CommTime float64
	// WorkerCPUUtil is each worker's mean CPU utilization over the run.
	WorkerCPUUtil []float64
	// PSCPUUtil and PSNICUtil are per-PS mean utilizations.
	PSCPUUtil []float64
	PSNICUtil []float64
	// PSNICSeries holds one throughput time series per PS docker when
	// Options.TraceBin > 0 (MB/s per bin).
	PSNICSeries []*flow.Series
	// Loss is the training loss curve.
	Loss []LossPoint
	// PerWorkerIterations counts iterations executed by each worker
	// (meaningful for ASP; for BSP every worker executes every round).
	PerWorkerIterations []int
	// IterRecords holds per-iteration timings when
	// Options.RecordIterations is set, in completion order.
	IterRecords []IterRecord
	// FinalLoss is the loss at the last iteration.
	FinalLoss float64
	// Interrupted reports that a scheduled Fault halted the run before
	// the iteration budget completed; Fault is the one that fired. The
	// other fields still describe the partial segment (TrainingTime is
	// time until the fault, Iterations the count completed before it).
	Interrupted bool
	Fault       *Fault
	// CheckpointIter is the last segment-local iteration safely
	// checkpointed before the interruption (0 when checkpointing is
	// disabled); LostIterations is the completed work after it that a
	// resuming run must redo.
	CheckpointIter int
	LostIterations int
}

// MeanWorkerCPUUtil averages worker CPU utilization across the cluster.
func (r *Result) MeanWorkerCPUUtil() float64 {
	if len(r.WorkerCPUUtil) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range r.WorkerCPUUtil {
		sum += u
	}
	return sum / float64(len(r.WorkerCPUUtil))
}

// PSNICAggregate sums the per-PS throughput series into one cluster-level
// series (bins align because all series share the trace bin width).
func (r *Result) PSNICAggregate() []float64 {
	maxLen := 0
	for _, s := range r.PSNICSeries {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	out := make([]float64, maxLen)
	for _, s := range r.PSNICSeries {
		for i, v := range s.Rates() {
			out[i] += v
		}
	}
	return out
}

// Run simulates training the workload on the cluster and returns the
// result.
func Run(w *model.Workload, cluster ClusterSpec, opt Options) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("ddnnsim: nil workload")
	}
	if cluster.NumWorkers() < 1 || cluster.NumPS() < 1 {
		return nil, fmt.Errorf("ddnnsim: cluster needs >=1 worker and >=1 PS, got %d/%d",
			cluster.NumWorkers(), cluster.NumPS())
	}
	iters := w.Iterations
	if opt.Iterations > 0 {
		iters = opt.Iterations
	}
	if opt.LossEvery <= 0 {
		opt.LossEvery = 1
	}

	s := newSim(w, cluster, iters, opt)
	switch w.Sync {
	case model.BSP:
		s.runBSP()
	case model.ASP:
		s.runASP()
	default:
		return nil, fmt.Errorf("ddnnsim: unsupported sync mode %v", w.Sync)
	}
	// The earliest scheduled fault halts the run at its instant, exactly
	// like a horizon but with a graceful partial result instead of an
	// error. The flow engine treats a non-positive horizon as unbounded,
	// so a fault at t<=0 is clamped to a hair above zero.
	fault, stop := earliestFault(opt.Faults)
	faultBinds := fault != nil && (opt.Horizon <= 0 || stop <= opt.Horizon)
	if !faultBinds {
		stop = opt.Horizon
	}
	end := s.eng.Run(stop)
	s.journalCheckpoints()
	if s.completed < iters {
		if faultBinds {
			res := s.result(end)
			res.Interrupted = true
			res.Fault = fault
			if opt.CheckpointEvery > 0 {
				res.CheckpointIter = s.completed - s.completed%opt.CheckpointEvery
			}
			res.LostIterations = s.completed - res.CheckpointIter
			if opt.Journal.Enabled() {
				opt.Journal.EmitAt(opt.JournalBaseSec+end, journal.SimInterrupted,
					journal.F("role", fault.Role),
					journal.Fint("index", fault.Index),
					journal.Fint("completed", s.completed),
					journal.Fint("checkpoint_iter", res.CheckpointIter),
					journal.Fint("lost_iterations", res.LostIterations))
			}
			obs.Debugf("ddnnsim: fault %s[%d] at %.1fs after %d/%d iterations (%d checkpointed, %d lost)",
				fault.Role, fault.Index, end, s.completed, iters, res.CheckpointIter, res.LostIterations)
			return res, nil
		}
		return nil, fmt.Errorf("ddnnsim: horizon %.1fs reached after %d/%d iterations",
			opt.Horizon, s.completed, iters)
	}
	if opt.Journal.Enabled() {
		opt.Journal.EmitAt(opt.JournalBaseSec+end, journal.SimSegmentDone,
			journal.Fint("iterations", s.completed),
			journal.Ffloat("training_sec", end))
	}
	return s.result(end), nil
}

// journalCheckpoints emits one sim.checkpoint event per CheckpointEvery
// crossing, stamped at the crossing iteration's completion instant. The
// emission runs after the engine from the single calling goroutine so
// event order is deterministic.
func (s *sim) journalCheckpoints() {
	b := s.opt.Journal
	every := s.opt.CheckpointEvery
	if !b.Enabled() || every <= 0 {
		return
	}
	for i := every; i <= s.completed; i += every {
		b.EmitAt(s.opt.JournalBaseSec+s.iterEnd[i-1], journal.SimCheckpoint,
			journal.Fint("iter", s.opt.StartIteration+i),
			journal.Fint("segment_iter", i))
	}
}

// earliestFault picks the first scheduled fault and its clamped instant.
func earliestFault(faults []Fault) (*Fault, float64) {
	var best *Fault
	for i := range faults {
		if best == nil || faults[i].AtSec < best.AtSec {
			best = &faults[i]
		}
	}
	if best == nil {
		return nil, 0
	}
	at := best.AtSec
	if at <= 0 {
		at = 1e-9
	}
	cp := *best
	return &cp, at
}

// sim holds the live simulation state.
type sim struct {
	w       *model.Workload
	cluster ClusterSpec
	iters   int
	opt     Options
	eng     *flow.Engine
	rng     *rand.Rand

	wkCPU  []*flow.Resource
	wkNIC  []*flow.Resource
	psCPU  []*flow.Resource
	psNIC  []*flow.Resource
	series []*flow.Series

	completed  int
	compTotal  float64
	commTotal  float64
	records    []IterRecord
	perWorker  []int
	iterEnd    []float64 // completion time per iteration, in completion order
	nWk, nPS   int
	shardMB    float64 // parameter MB per PS shard
	psCPUPerMB float64
	lossRng    *rand.Rand
}

// computeNoise is the relative jitter applied to per-iteration compute
// times, mimicking OS and cache variability on real workers. It also keeps
// ASP workers from marching in artificial lockstep.
const computeNoise = 0.02

// noisyWork perturbs a work amount by ±computeNoise, deterministically for
// a given seed.
func (s *sim) noisyWork(work float64) float64 {
	return work * (1 + computeNoise*(2*s.rng.Float64()-1))
}

func newSim(w *model.Workload, cluster ClusterSpec, iters int, opt Options) *sim {
	s := &sim{
		w:       w,
		cluster: cluster,
		iters:   iters,
		opt:     opt,
		eng:     flow.NewEngine(),
		rng:     rand.New(rand.NewSource(opt.Seed)),
		lossRng: rand.New(rand.NewSource(opt.Seed + 1)),
		nWk:     cluster.NumWorkers(),
		nPS:     cluster.NumPS(),
	}
	s.shardMB = w.GparamMB / float64(s.nPS)
	s.psCPUPerMB = w.PSCPUPerMB
	if opt.DisablePSCPU {
		s.psCPUPerMB = 0
	}
	s.perWorker = make([]int, s.nWk)
	for j, t := range cluster.Workers {
		s.wkCPU = append(s.wkCPU, flow.NewResource(fmt.Sprintf("wk%d.cpu", j), t.GFLOPS))
		s.wkNIC = append(s.wkNIC, flow.NewResource(fmt.Sprintf("wk%d.nic", j), t.NetMBps))
	}
	for k, t := range cluster.PS {
		s.psCPU = append(s.psCPU, flow.NewResource(fmt.Sprintf("ps%d.cpu", k), t.GFLOPS))
		nic := flow.NewResource(fmt.Sprintf("ps%d.nic", k), t.NetMBps)
		if opt.TraceBin > 0 {
			s.series = append(s.series, nic.Record(opt.TraceBin))
		}
		s.psNIC = append(s.psNIC, nic)
	}
	if tr := opt.Trace; tr != nil {
		tr.ProcessName(pidCluster, "cluster")
		tr.ThreadName(pidCluster, 0, "rounds")
		tr.ProcessName(pidWorkers, "workers")
		for j, t := range cluster.Workers {
			tr.ThreadName(pidWorkers, j, fmt.Sprintf("worker %d (%s)", j, t.Name))
		}
		tr.ProcessName(pidPS, "parameter servers")
		for k, t := range cluster.PS {
			tr.ThreadName(pidPS, k, fmt.Sprintf("ps %d (%s)", k, t.Name))
		}
	}
	return s
}

// transfer submits one NIC transfer between worker j and PS shard k plus
// the PS-side CPU work for handling it, invoking done when both finish.
// cat categorizes the trace span ("push" or "pull"); the NIC span lands
// on worker j's track, the aggregation CPU span on PS k's track.
func (s *sim) transfer(label, cat string, j, k int, mb float64, done func(now float64)) {
	pending := 1
	cpuWork := mb * s.psCPUPerMB
	if cpuWork > 0 {
		pending = 2
	}
	finish := func(now float64) {
		pending--
		if pending == 0 && done != nil {
			done(now)
		}
	}
	begin := s.eng.Now()
	s.eng.Submit(label, mb, []*flow.Resource{s.wkNIC[j], s.psNIC[k]}, func(now float64) {
		if s.opt.Trace != nil {
			s.opt.Trace.Complete(pidWorkers, j, cat, label, begin, now)
		}
		finish(now)
	})
	if cpuWork > 0 {
		s.eng.Submit(label+".cpu", cpuWork, []*flow.Resource{s.psCPU[k]}, func(now float64) {
			if s.opt.Trace != nil {
				s.opt.Trace.Complete(pidPS, k, "aggregate", label+".cpu", begin, now)
			}
			finish(now)
		})
	}
}

// --- BSP ---
//
// Round r for worker j:
//  1. compute witer/n on the worker CPU; start is gated on the worker's
//     previous compute AND on barrier r-2, giving a one-round-deep
//     pipeline, i.e. computation overlapped with communication
//     (TensorFlow's SyncReplicasOptimizer, paper footnote 2);
//  2. push the gradient shard to every PS (NIC + PS CPU);
//  3. once a shard has every worker's gradient, workers pull the fresh
//     parameters (NIC + PS CPU);
//  4. barrier: round r ends when all pulls finish.
type bspRound struct {
	compStart    float64
	compMax      float64 // slowest worker's compute duration
	commStart    float64
	commStarted  bool
	pushesByPS   []int
	pullsPending int
	compPending  int
}

func (s *sim) runBSP() {
	rounds := map[int]*bspRound{}
	barrierDone := -1
	waiting := map[int][]func(){} // round barrier -> deferred compute starts

	getRound := func(r int) *bspRound {
		st, ok := rounds[r]
		if !ok {
			st = &bspRound{pushesByPS: make([]int, s.nPS), compPending: s.nWk,
				pullsPending: s.nWk * s.nPS, compStart: -1, commStart: -1}
			rounds[r] = st
		}
		return st
	}

	var startCompute func(j, r int)
	var barrier func(r int, now float64)

	startCompute = func(j, r int) {
		if r >= s.iters {
			return
		}
		st := getRound(r)
		begin := s.eng.Now()
		if st.compStart < 0 || begin < st.compStart {
			st.compStart = begin
		}
		work := s.noisyWork(s.w.WiterGFLOPs / float64(s.nWk))
		s.eng.Submit(fmt.Sprintf("comp.r%d.w%d", r, j), work, []*flow.Resource{s.wkCPU[j]}, func(now float64) {
			if s.opt.Trace != nil {
				s.opt.Trace.Complete(pidWorkers, j, "compute", fmt.Sprintf("comp.r%d", r), begin, now)
			}
			if d := now - begin; d > st.compMax {
				st.compMax = d
			}
			s.perWorker[j]++
			// Push gradients for round r.
			if !st.commStarted {
				st.commStarted = true
				st.commStart = now
			}
			for k := 0; k < s.nPS; k++ {
				k := k
				s.transfer(fmt.Sprintf("push.r%d.w%d.p%d", r, j, k), "push", j, k, s.shardMB, func(now float64) {
					st.pushesByPS[k]++
					if st.pushesByPS[k] == s.nWk {
						// Shard k updated; everyone pulls it.
						for jj := 0; jj < s.nWk; jj++ {
							s.transfer(fmt.Sprintf("pull.r%d.w%d.p%d", r, jj, k), "pull", jj, k, s.shardMB, func(now float64) {
								st.pullsPending--
								if st.pullsPending == 0 {
									barrier(r, now)
								}
							})
						}
					}
				})
			}
			// Overlap: next round's compute may start once barrier r-1
			// is done (one outstanding communication round). Without
			// overlap it waits for this round's own barrier.
			next := r + 1
			gate := r - 1
			if s.opt.NoOverlap {
				gate = r
			}
			if barrierDone >= gate {
				startCompute(j, next)
			} else {
				waiting[gate] = append(waiting[gate], func() { startCompute(j, next) })
			}
		})
	}

	barrier = func(r int, now float64) {
		st := rounds[r]
		if s.opt.Trace != nil {
			// The barrier span covers the communication phase: first
			// gradient byte to the instant the last pull completes.
			s.opt.Trace.Complete(pidCluster, 0, "barrier", fmt.Sprintf("barrier.r%d", r), st.commStart, now)
		}
		s.compTotal += st.compMax
		s.commTotal += now - st.commStart
		if s.opt.RecordIterations {
			s.records = append(s.records, IterRecord{
				Index: s.completed, Worker: -1, EndSec: now,
				ComputeSec: st.compMax, CommSec: now - st.commStart,
			})
		}
		s.completed++
		s.iterEnd = append(s.iterEnd, now)
		// BSP counts a round as one iteration for every worker's share;
		// perWorker already incremented per compute.
		delete(rounds, r)
		if r > barrierDone {
			barrierDone = r
		}
		for _, fn := range waiting[r] {
			fn()
		}
		delete(waiting, r)
	}

	for j := 0; j < s.nWk; j++ {
		startCompute(j, 0)
	}
}

// --- ASP ---
//
// Each worker independently loops: compute a full iteration, push
// gradients, have the PS apply them, pull fresh parameters, repeat. A
// shared countdown distributes the iteration budget across workers, so
// faster workers naturally execute more iterations (work stealing, as in
// TensorFlow's asynchronous between-graph training).
func (s *sim) runASP() {
	remaining := s.iters
	var loop func(j int)
	loop = func(j int) {
		if remaining == 0 {
			return
		}
		remaining--
		begin := s.eng.Now()
		s.eng.Submit(fmt.Sprintf("comp.w%d", j), s.noisyWork(s.w.WiterGFLOPs), []*flow.Resource{s.wkCPU[j]}, func(now float64) {
			if s.opt.Trace != nil {
				s.opt.Trace.Complete(pidWorkers, j, "compute", fmt.Sprintf("comp.w%d", j), begin, now)
			}
			compDur := now - begin
			s.compTotal += compDur
			commBegin := now
			// Push to every shard; once all shards applied, pull.
			pushesLeft := s.nPS
			for k := 0; k < s.nPS; k++ {
				s.transfer(fmt.Sprintf("push.w%d.p%d", j, k), "push", j, k, s.shardMB, func(float64) {
					pushesLeft--
					if pushesLeft > 0 {
						return
					}
					pullsLeft := s.nPS
					for kk := 0; kk < s.nPS; kk++ {
						s.transfer(fmt.Sprintf("pull.w%d.p%d", j, kk), "pull", j, kk, s.shardMB, func(now float64) {
							pullsLeft--
							if pullsLeft == 0 {
								s.commTotal += now - commBegin
								if s.opt.RecordIterations {
									s.records = append(s.records, IterRecord{
										Index: s.completed, Worker: j, EndSec: now,
										ComputeSec: compDur, CommSec: now - commBegin,
									})
								}
								s.completed++
								s.perWorker[j]++
								s.iterEnd = append(s.iterEnd, now)
								loop(j)
							}
						})
					}
				})
			}
		})
	}
	// Stagger worker starts across one uncontended iteration period so
	// the asynchronous workers pipeline from the outset instead of
	// marching in an artificial convoy (real ASP clusters desynchronize
	// within a few iterations).
	solo := s.w.WiterGFLOPs/s.cluster.Workers[0].GFLOPS + s.w.SyncMB()/s.cluster.PS[0].NetMBps
	for j := 0; j < s.nWk; j++ {
		j := j
		s.eng.At(solo*float64(j)/float64(s.nWk), func(float64) { loop(j) })
	}
}

// result assembles utilization metrics and the loss curve.
func (s *sim) result(end float64) *Result {
	res := &Result{
		TrainingTime:        end,
		Iterations:          s.completed,
		ComputeTime:         s.compTotal,
		CommTime:            s.commTotal,
		PSNICSeries:         s.series,
		PerWorkerIterations: s.perWorker,
		IterRecords:         s.records,
	}
	if s.w.Sync == model.ASP && s.completed > 0 {
		// Per-iteration means for ASP (compTotal summed every iteration).
		res.ComputeTime = s.compTotal
		res.CommTime = s.commTotal
	}
	if s.completed > 0 {
		res.MeanIterTime = end / float64(s.completed)
	}
	for _, r := range s.wkCPU {
		res.WorkerCPUUtil = append(res.WorkerCPUUtil, r.Utilization(end))
	}
	for _, r := range s.psCPU {
		res.PSCPUUtil = append(res.PSCPUUtil, r.Utilization(end))
	}
	for _, r := range s.psNIC {
		res.PSNICUtil = append(res.PSNICUtil, r.Utilization(end))
	}
	// Loss curve: the paper's Eq. (1) family with multiplicative noise,
	// sampled at iteration completion times. Resumed segments offset by
	// StartIteration so the curve continues the global trajectory.
	n := s.nWk
	for i := s.opt.LossEvery; i <= s.completed; i += s.opt.LossEvery {
		gi := s.opt.StartIteration + i
		loss := s.w.Loss.Loss(s.w.Sync, float64(gi), n)
		loss *= 1 + 0.03*s.lossRng.NormFloat64()
		if loss < 0 {
			loss = 0
		}
		res.Loss = append(res.Loss, LossPoint{Iter: gi, Time: s.iterEnd[i-1], Loss: loss})
	}
	if len(res.Loss) > 0 {
		res.FinalLoss = res.Loss[len(res.Loss)-1].Loss
	}
	if reg := s.opt.Metrics; reg != nil {
		cpus := append(append([]*flow.Resource(nil), s.wkCPU...), s.psCPU...)
		flow.ExportUtilization(reg, "cynthia_sim_cpu_util",
			"mean CPU utilization per docker over the run (measured Eq. 6 demand/capacity)", end, cpus...)
		nics := append(append([]*flow.Resource(nil), s.wkNIC...), s.psNIC...)
		flow.ExportUtilization(reg, "cynthia_sim_nic_util",
			"mean NIC utilization per docker over the run (measured Eq. 7 demand/capacity)", end, nics...)
		reg.Gauge("cynthia_sim_training_time_seconds", "simulated training makespan").Set(end)
		reg.Gauge("cynthia_sim_iterations", "completed iterations").Set(float64(s.completed))
		flow.ExportEngine(reg, "cynthia_sim_engine", s.eng)
	}
	return res
}
