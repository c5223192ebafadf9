// Package ddnnsim simulates distributed DNN training under the parameter
// server architecture, reproducing the system the Cynthia paper measures on
// EC2: a cluster of single-core worker dockers training a model with BSP or
// ASP synchronization against one or more PS dockers.
//
// Rather than evaluating closed-form formulas, ddnnsim runs a flow-level
// discrete-event simulation (internal/flow): gradient pushes, parameter
// pulls, and PS-side aggregation CPU work contend on shared fluid
// resources (worker NICs, PS NICs, PS CPUs). The contention effects the
// paper reports — PS NIC saturation, PS CPU saturation, stragglers
// blocking BSP barriers, the computation/communication imbalance — emerge
// from the simulation, which is what makes the prediction-accuracy
// experiments (Figs. 6-10) meaningful: the Cynthia, Optimus, and Paleo
// models are judged against behaviour they do not generate themselves.
//
// Worker compute is a timer, not a flow. A worker's single core only ever
// runs that worker's own computes, one at a time, so max-min sharing would
// always give a compute the core's whole capacity: a compute of work w
// started at t ends at exactly t + w/capacity, the instant the engine
// would have predicted. The sim schedules that instant with Engine.At and
// books the core's busy time itself (see workerCPU), with the arithmetic
// of the engine's settlement, so every output bit is what a compute flow
// on a worker-CPU resource would produce.
package ddnnsim

import (
	"fmt"
	"math/rand"

	"cynthia/internal/cloud"
	"cynthia/internal/flow"
	"cynthia/internal/model"
	"cynthia/internal/obs"
)

// Trace-track process IDs: the exported Chrome trace groups spans into a
// cluster-level track (rounds/barriers), one track per worker, and one
// per PS docker.
const (
	pidCluster = 0
	pidWorkers = 1
	pidPS      = 2
)

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
	// the slowest worker's compute per round, for ASP the compute
	// duration of every iteration any worker completed. Because
	// computation and communication overlap, ComputeTime + CommTime can
	// exceed TrainingTime (as in the paper's Fig. 3).
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

// Run simulates training the workload on the cluster and returns the
// result.
func Run(w *model.Workload, cluster cloud.ClusterSpec, opt Options) (*Result, error) {
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
	// The earliest scheduled fault halts the run at its instant with a
	// partial result. The flow engine treats a non-positive horizon as
	// unbounded, so a fault at t<=0 is clamped to a hair above zero, and
	// a run without faults goes to completion.
	fault, stop := earliestFault(opt.Faults)
	end := s.eng.Run(stop)
	if s.completed < iters {
		if fault == nil {
			return nil, fmt.Errorf("ddnnsim: simulation stalled after %d/%d iterations", s.completed, iters)
		}
		res := s.result(end)
		res.Interrupted = true
		res.Fault = fault
		if opt.CheckpointEvery > 0 {
			res.CheckpointIter = s.completed - s.completed%opt.CheckpointEvery
		}
		res.LostIterations = s.completed - res.CheckpointIter
		return res, nil
	}
	return s.result(end), nil
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
//
// A simulated iteration allocates nothing once the sim is warm. Trace
// span labels are built only when Options.Trace is set; every flow path
// is built once, in newSim; transfers come from a free list of records
// (xfer); and the BSP and ASP protocols run as per-worker state machines
// (bspWorker, bspRound, aspWorker) whose flow callbacks are method values
// bound once at setup. The engine recycles the Flow records themselves.
// The free list belongs to the sim, not to the package, because
// concurrent jobs run sims concurrently.
type sim struct {
	w       *model.Workload
	cluster cloud.ClusterSpec
	iters   int
	opt     Options
	eng     *flow.Engine
	rng     *rand.Rand

	wkCPU  []workerCPU
	wkNIC  []*flow.Resource
	psCPU  []*flow.Resource
	psNIC  []*flow.Resource
	series []*flow.Series

	// nicPaths[j*nPS+k] is the {wkNIC[j], psNIC[k]} path of every transfer
	// between worker j and PS shard k. PS CPU paths need no table: shard
	// k's is psCPU[k:k+1].
	nicPaths [][]*flow.Resource
	xferFree []*xfer

	// BSP state (runBSP): one state machine per worker, and a ring of
	// round records, because the overlap gate keeps at most two rounds
	// live. barrierDone is the last round whose barrier completed.
	bspWorkers  []bspWorker
	rounds      [2]bspRound
	barrierDone int

	// ASP state (runASP): one state machine per worker, and the shared
	// countdown of iterations not yet started.
	aspWorkers []aspWorker
	aspLeft    int

	completed int
	compTotal float64
	commTotal float64
	records   []IterRecord
	perWorker []int
	iterEnd   []float64 // completion time per iteration, in completion order
	nWk, nPS  int
	shardMB   float64 // parameter MB per PS shard
	lossRng   *rand.Rand
}

// computeNoise is the relative jitter applied to per-iteration compute
// times, mimicking OS and cache variability on real workers. It also keeps
// ASP workers from marching in artificial lockstep.
const computeNoise = 0.02

// noisyWork perturbs a work amount by ±computeNoise, deterministically for
// a given seed.
func (s *sim) noisyWork(work float64) float64 {
	return work * (1 + float64(computeNoise*(2*float64(s.rng.Float64())-1)))
}

func newSim(w *model.Workload, cluster cloud.ClusterSpec, iters int, opt Options) *sim {
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
	s.perWorker = make([]int, s.nWk)
	s.iterEnd = make([]float64, 0, iters)
	s.wkCPU = make([]workerCPU, s.nWk)
	for j, t := range cluster.Workers {
		s.wkCPU[j].capacity = t.GFLOPS
		s.wkNIC = append(s.wkNIC, flow.NewResource(t.NetMBps))
	}
	for _, t := range cluster.PS {
		s.psCPU = append(s.psCPU, flow.NewResource(t.GFLOPS))
		nic := flow.NewResource(t.NetMBps)
		if opt.TraceBin > 0 {
			s.series = append(s.series, nic.Record(opt.TraceBin))
		}
		s.psNIC = append(s.psNIC, nic)
	}
	pairs := make([]*flow.Resource, 2*s.nWk*s.nPS)
	s.nicPaths = make([][]*flow.Resource, s.nWk*s.nPS)
	for i := range s.nicPaths {
		p := pairs[2*i : 2*i+2 : 2*i+2]
		p[0], p[1] = s.wkNIC[i/s.nPS], s.psNIC[i%s.nPS]
		s.nicPaths[i] = p
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

// workerCPU is a worker's single core. It runs only the worker's own
// computes, one at a time, so each runs at the core's full capacity and
// ends at a known instant, which compute schedules as a timer. busy is the
// service the core delivered, booked per compute as capacity × duration:
// the product the flow engine's settlement accrues for a lone flow at
// full rate, so the utilization equals a compute flow's bit for bit.
type workerCPU struct {
	capacity float64
	busy     float64 // service delivered by the computes finished so far
	begin    float64 // start of the compute in flight
	running  bool
}

// compute starts a compute of the given work and runs done when it ends.
func (c *workerCPU) compute(eng *flow.Engine, work float64, done func(now float64)) {
	c.begin, c.running = eng.Now(), true
	eng.At(c.begin+work/c.capacity, done)
}

// finish books the compute in flight as ending at now.
func (c *workerCPU) finish(now float64) {
	c.running = false
	c.busy += float64(c.capacity * (now - c.begin))
}

// utilization is the core's mean utilization over [0, end], counting a
// compute still in flight at end (a fault halted the run) through end.
func (c *workerCPU) utilization(end float64) float64 {
	busy := c.busy
	if c.running {
		busy += float64(c.capacity * (end - c.begin))
	}
	return flow.MeanUtilization(busy, c.capacity, end)
}

// xfer is one in-flight transfer of a parameter shard between worker j and
// PS shard k: a NIC flow plus, when the PS CPU is modelled, the shard's
// aggregation CPU flow. When both have finished, the record goes back to
// the sim's free list and then(j, k, now) runs. nicDone and cpuDone are
// the two flows' callbacks, bound once when the record is first made.
type xfer struct {
	s                *sim
	j, k             int
	pending          int // flows still running
	begin            float64
	cat              string // trace category: "push" or "pull"
	label            string // span name; "" unless tracing
	then             func(j, k int, now float64)
	nicDone, cpuDone func(now float64)
}

// transfer moves one parameter shard between worker j and PS shard k (cat
// "push" or "pull") and calls then(j, k, now) when both the NIC transfer
// and the PS-side CPU work for it have finished. r is the BSP round, or
// -1 under ASP; it only names the trace spans. The NIC span lands on
// worker j's track, the aggregation CPU span on PS k's track.
func (s *sim) transfer(cat string, r, j, k int, then func(j, k int, now float64)) {
	var x *xfer
	if n := len(s.xferFree); n > 0 {
		x = s.xferFree[n-1]
		s.xferFree = s.xferFree[:n-1]
	} else {
		x = &xfer{s: s}
		x.nicDone, x.cpuDone = x.nicFinished, x.cpuFinished
	}
	x.j, x.k, x.cat, x.then = j, k, cat, then
	x.pending = 1
	cpuWork := s.shardMB * s.w.PSCPUPerMB
	if cpuWork > 0 {
		x.pending = 2
	}
	x.begin = s.eng.Now()
	x.label = ""
	if s.opt.Trace != nil {
		x.label = xferLabel(cat, r, j, k)
	}
	s.eng.Submit(s.shardMB, s.nicPaths[j*s.nPS+k], x.nicDone)
	if cpuWork > 0 {
		s.eng.Submit(cpuWork, s.psCPU[k:k+1:k+1], x.cpuDone)
	}
}

// xferLabel names a transfer's NIC span: push.r3.w1.p0 for BSP
// round 3, push.w1.p0 under ASP (r < 0).
func xferLabel(cat string, r, j, k int) string {
	if r < 0 {
		return fmt.Sprintf("%s.w%d.p%d", cat, j, k)
	}
	return fmt.Sprintf("%s.r%d.w%d.p%d", cat, r, j, k)
}

func (x *xfer) nicFinished(now float64) {
	if tr := x.s.opt.Trace; tr != nil {
		tr.Complete(pidWorkers, x.j, x.cat, x.label, x.begin, now)
	}
	x.finish(now)
}

func (x *xfer) cpuFinished(now float64) {
	if tr := x.s.opt.Trace; tr != nil {
		tr.Complete(pidPS, x.k, "aggregate", x.label+".cpu", x.begin, now)
	}
	x.finish(now)
}

// finish counts one flow done. After the last, the record is recycled
// before then runs, so the transfers then starts can reuse it.
func (x *xfer) finish(now float64) {
	x.pending--
	if x.pending > 0 {
		return
	}
	j, k, then := x.j, x.k, x.then
	x.s.xferFree = append(x.s.xferFree, x)
	then(j, k, now)
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
//
// Each worker is a bspWorker state machine (compute round r, push, then
// start round r+1 or park until the gate's barrier), and each live round
// is a bspRound in a two-slot ring. Two slots suffice: a worker starts
// round r+1 only after barrier r-1, and barriers complete in round order,
// because the same (worker, shard) transfer of consecutive rounds runs on
// the same path, so the earlier one finishes first. round and barrier
// panic if either property ever breaks.
func (s *sim) runBSP() {
	s.barrierDone = -1
	pushes := make([]int, len(s.rounds)*s.nPS)
	for i := range s.rounds {
		st := &s.rounds[i]
		st.s = s
		st.pushesByPS = pushes[i*s.nPS : (i+1)*s.nPS : (i+1)*s.nPS]
		st.pushed, st.pulled = st.onPushed, st.onPulled
	}
	s.bspWorkers = make([]bspWorker, s.nWk)
	for j := range s.bspWorkers {
		w := &s.bspWorkers[j]
		w.s, w.j = s, j
		w.computed = w.onComputed
	}
	for j := range s.bspWorkers {
		s.bspWorkers[j].start(0)
	}
}

// bspRound is one live BSP round.
type bspRound struct {
	s            *sim
	r            int
	live         bool
	compMax      float64 // slowest worker's compute duration
	commStart    float64 // first gradient byte of the round
	commStarted  bool
	pushesByPS   []int // gradients received per shard
	pullsPending int
	// waitHead and waitTail are the first and last worker (-1: none) whose
	// next compute waits on this round's barrier, linked through
	// bspWorker.next in the order they parked.
	waitHead, waitTail int
	pushed, pulled     func(j, k int, now float64)
}

// round returns the record of round r, claiming a ring slot the first time
// round r is asked for.
func (s *sim) round(r int) *bspRound {
	st := &s.rounds[r%len(s.rounds)]
	if st.live {
		if st.r != r {
			panic(fmt.Sprintf("ddnnsim: BSP round %d started while round %d is live; the overlap gate allows two live rounds", r, st.r))
		}
		return st
	}
	st.r, st.live = r, true
	st.compMax, st.commStart, st.commStarted = 0, -1, false
	clear(st.pushesByPS)
	st.pullsPending = s.nWk * s.nPS
	st.waitHead, st.waitTail = -1, -1
	return st
}

// onPushed counts worker j's gradient for shard k. The last one updates
// the shard, and every worker pulls it.
func (st *bspRound) onPushed(_, k int, _ float64) {
	s := st.s
	st.pushesByPS[k]++
	if st.pushesByPS[k] == s.nWk {
		for jj := 0; jj < s.nWk; jj++ {
			s.transfer("pull", st.r, jj, k, st.pulled)
		}
	}
}

func (st *bspRound) onPulled(_, _ int, now float64) {
	st.pullsPending--
	if st.pullsPending == 0 {
		st.s.barrier(st, now)
	}
}

// park queues worker w to start its next round at this round's barrier.
func (st *bspRound) park(w *bspWorker) {
	w.next = -1
	if st.waitTail < 0 {
		st.waitHead = w.j
	} else {
		st.s.bspWorkers[st.waitTail].next = w.j
	}
	st.waitTail = w.j
}

// barrier ends round st: it books the round, frees its ring slot and
// starts the parked workers in the order they parked.
func (s *sim) barrier(st *bspRound, now float64) {
	r := st.r
	if r != s.barrierDone+1 {
		panic(fmt.Sprintf("ddnnsim: BSP barrier %d completed after barrier %d", r, s.barrierDone))
	}
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
	st.live = false
	s.barrierDone = r
	// Released workers start round r+2, which claims this slot and resets
	// its wait list, so the walk follows the worker links alone.
	for j := st.waitHead; j >= 0; {
		w := &s.bspWorkers[j]
		j = w.next
		w.start(w.r + 1)
	}
}

// bspWorker is worker j's BSP state machine. computed is its compute
// timer's callback, bound once.
type bspWorker struct {
	s        *sim
	j        int
	r        int // round being computed, or last computed while parked
	next     int // next worker parked on the same barrier, -1 at the end
	computed func(now float64)
}

// start begins computing round r, if the budget has one.
func (w *bspWorker) start(r int) {
	s := w.s
	if r >= s.iters {
		return
	}
	s.round(r)
	w.r = r
	s.wkCPU[w.j].compute(s.eng, s.noisyWork(s.w.WiterGFLOPs/float64(s.nWk)), w.computed)
}

// onComputed pushes round r's gradient to every shard, then starts round
// r+1 or parks on the gate's barrier.
func (w *bspWorker) onComputed(now float64) {
	s, j, r := w.s, w.j, w.r
	st := &s.rounds[r%len(s.rounds)]
	cpu := &s.wkCPU[j]
	cpu.finish(now)
	if s.opt.Trace != nil {
		s.opt.Trace.Complete(pidWorkers, j, "compute", fmt.Sprintf("comp.r%d", r), cpu.begin, now)
	}
	if d := now - cpu.begin; d > st.compMax {
		st.compMax = d
	}
	s.perWorker[j]++
	if !st.commStarted {
		st.commStarted = true
		st.commStart = now
	}
	for k := 0; k < s.nPS; k++ {
		s.transfer("push", r, j, k, st.pushed)
	}
	// Overlap: next round's compute may start once barrier r-1 is done
	// (one outstanding communication round). Without overlap it waits for
	// this round's own barrier.
	gate := r - 1
	if s.opt.NoOverlap {
		gate = r
	}
	if s.barrierDone >= gate {
		w.start(r + 1)
		return
	}
	g := &s.rounds[gate%len(s.rounds)]
	if !g.live || g.r != gate {
		panic(fmt.Sprintf("ddnnsim: worker %d waits on barrier %d, which is not live", j, gate))
	}
	g.park(w)
}

// --- ASP ---
//
// Each worker independently loops: compute a full iteration, push
// gradients, have the PS apply them, pull fresh parameters, repeat. A
// shared countdown distributes the iteration budget across workers, so
// faster workers naturally execute more iterations (work stealing, as in
// TensorFlow's asynchronous between-graph training).
//
// Each worker is an aspWorker state machine whose flow and timer callbacks
// are method values bound once here.
func (s *sim) runASP() {
	s.aspLeft = s.iters
	s.aspWorkers = make([]aspWorker, s.nWk)
	for j := range s.aspWorkers {
		w := &s.aspWorkers[j]
		w.s, w.j = s, j
		w.computed = w.onComputed
		w.pushed, w.pulled = w.onPushed, w.onPulled
	}
	// Stagger worker starts across one uncontended iteration period so
	// the asynchronous workers pipeline from the outset instead of
	// marching in an artificial convoy (real ASP clusters desynchronize
	// within a few iterations).
	solo := s.w.WiterGFLOPs/s.cluster.Workers[0].GFLOPS + s.w.SyncMB()/s.cluster.PS[0].NetMBps
	for j := range s.aspWorkers {
		s.eng.At(solo*float64(j)/float64(s.nWk), s.aspWorkers[j].iterate)
	}
}

// aspWorker is worker j's ASP loop: compute, push to every shard, pull
// from every shard once all pushes are applied, repeat.
type aspWorker struct {
	s              *sim
	j              int
	compDur        float64
	commBegin      float64
	left           int // transfers of the current push or pull phase in flight
	computed       func(now float64)
	pushed, pulled func(j, k int, now float64)
}

// iterate starts the worker's next iteration, if the shared budget has one.
func (w *aspWorker) iterate(float64) {
	s := w.s
	if s.aspLeft == 0 {
		return
	}
	s.aspLeft--
	s.wkCPU[w.j].compute(s.eng, s.noisyWork(s.w.WiterGFLOPs), w.computed)
}

func (w *aspWorker) onComputed(now float64) {
	s := w.s
	cpu := &s.wkCPU[w.j]
	cpu.finish(now)
	if s.opt.Trace != nil {
		s.opt.Trace.Complete(pidWorkers, w.j, "compute", fmt.Sprintf("comp.w%d", w.j), cpu.begin, now)
	}
	w.compDur = now - cpu.begin
	s.compTotal += w.compDur
	w.commBegin = now
	w.left = s.nPS
	for k := 0; k < s.nPS; k++ {
		s.transfer("push", -1, w.j, k, w.pushed)
	}
}

// onPushed pulls from every shard once the last push is applied.
func (w *aspWorker) onPushed(_, _ int, _ float64) {
	w.left--
	if w.left > 0 {
		return
	}
	s := w.s
	w.left = s.nPS
	for k := 0; k < s.nPS; k++ {
		s.transfer("pull", -1, w.j, k, w.pulled)
	}
}

// onPulled books the iteration once the last pull lands and starts the
// next one.
func (w *aspWorker) onPulled(_, _ int, now float64) {
	w.left--
	if w.left > 0 {
		return
	}
	s := w.s
	s.commTotal += now - w.commBegin
	if s.opt.RecordIterations {
		s.records = append(s.records, IterRecord{
			Index: s.completed, Worker: w.j, EndSec: now,
			ComputeSec: w.compDur, CommSec: now - w.commBegin,
		})
	}
	s.completed++
	s.perWorker[w.j]++
	s.iterEnd = append(s.iterEnd, now)
	w.iterate(now)
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
	if s.completed > 0 {
		res.MeanIterTime = end / float64(s.completed)
	}
	for j := range s.wkCPU {
		res.WorkerCPUUtil = append(res.WorkerCPUUtil, s.wkCPU[j].utilization(end))
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
		loss *= 1 + float64(0.03*s.lossRng.NormFloat64())
		if loss < 0 {
			loss = 0
		}
		res.Loss = append(res.Loss, LossPoint{Iter: gi, Time: s.iterEnd[i-1], Loss: loss})
	}
	if len(res.Loss) > 0 {
		res.FinalLoss = res.Loss[len(res.Loss)-1].Loss
	}
	return res
}
