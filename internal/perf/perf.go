// Package perf implements DDNN training performance models: the paper's
// Cynthia model (Sec. 3) and the Predictor interface that the Optimus and
// Paleo baselines (internal/baseline) also satisfy, so the provisioner and
// the experiments can swap models freely.
package perf

import (
	"fmt"
	"math"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

// Profile holds the quantities obtained by profiling a DDNN workload once
// on a single baseline worker with a single PS node (paper Sec. 3,
// "Obtaining model parameters"). All predictors consume a Profile; only
// Cynthia uses the PS resource-consumption fields.
type Profile struct {
	// Workload is the profiled training job.
	Workload *model.Workload
	// Base is the baseline worker's instance type (cbase = Base.GFLOPS).
	Base cloud.InstanceType
	// TBaseIter is the measured mean iteration time on the baseline
	// worker, in seconds.
	TBaseIter float64
	// WiterGFLOPs is the per-iteration work inferred from the profiling
	// run: the compute portion of TBaseIter times cbase.
	WiterGFLOPs float64
	// GparamMB is the parameter size measured from PS traffic divided by
	// the iteration count.
	GparamMB float64
	// CprofGFLOPS is the PS node's CPU consumption rate during
	// profiling (CPU utilization x capability), in GFLOPS.
	CprofGFLOPS float64
	// BprofMBps is the PS node's NIC throughput during profiling.
	BprofMBps float64
}

// Validate checks the profile for usability.
func (p *Profile) Validate() error {
	if p == nil || p.Workload == nil {
		return fmt.Errorf("perf: nil profile or workload")
	}
	if p.WiterGFLOPs <= 0 || p.GparamMB <= 0 || p.TBaseIter <= 0 {
		return fmt.Errorf("perf: profile for %s has non-positive measurements", p.Workload.Name)
	}
	if p.Base.GFLOPS <= 0 {
		return fmt.Errorf("perf: profile baseline %q has no CPU capability", p.Base.Name)
	}
	return nil
}

// Predictor is a DDNN training performance model.
type Predictor interface {
	// Name identifies the model ("Cynthia", "Optimus", "Paleo").
	Name() string
	// IterTime predicts the mean iteration processing time titer for the
	// profiled workload on the given cluster, in seconds. For ASP this
	// is the mean over workers of the per-worker iteration time.
	IterTime(p *Profile, cluster cloud.ClusterSpec) (float64, error)
	// TrainingTime predicts the makespan of iters iterations on the
	// given cluster, in seconds.
	TrainingTime(p *Profile, cluster cloud.ClusterSpec, iters int) (float64, error)
}

// HomogeneousPredictor is the optional Predictor extension for the
// planner's hot path: it predicts a homogeneous cluster — n workers and nps
// PS nodes, all of type t — without materialising a ClusterSpec, returning
// the iteration time and the training time of iters iterations from one
// call. Implementations must return bit for bit what IterTime and
// TrainingTime return on cloud.Homogeneous(t, n, nps), errors included.
type HomogeneousPredictor interface {
	Predictor
	PredictHomogeneous(p *Profile, t cloud.InstanceType, n, nps, iters int) (iterTime, trainingTime float64, err error)
}

// Cynthia is the paper's performance model (Sec. 3). It captures the PS
// resource bottleneck via the demand/supply ratio of the PS CPU and NIC
// (Eq. 6-7), worker heterogeneity via per-worker CPU rates (Eq. 4), and
// the computation/communication overlap of BSP (Eq. 3).
type Cynthia struct{}

var _ HomogeneousPredictor = Cynthia{}

// Name implements Predictor.
func (Cynthia) Name() string { return "Cynthia" }

// shape is what Eq. (3)-(7) read off a cluster: the worker count, the PS
// tier's summed CPU and NIC supply (csupply, bsupply), and the workers'
// CPU capabilities — an explicit list, or, when workers is nil, n copies
// of minC. minC is always the slowest worker's capability.
type shape struct {
	n          int
	csup, bsup float64
	workers    []cloud.InstanceType
	minC       float64
}

func specShape(c cloud.ClusterSpec) shape {
	return shape{n: c.NumWorkers(), csup: c.TotalPSGFLOPS(), bsup: c.TotalPSNetMBps(),
		workers: c.Workers, minC: c.MinWorkerGFLOPS()}
}

func homogeneousShape(t cloud.InstanceType, n, nps int) shape {
	return shape{n: n, csup: repeatSum(t.GFLOPS, nps), bsup: repeatSum(t.NetMBps, nps), minC: t.GFLOPS}
}

// repeatSum adds k copies of x in order: bit for bit what summing a
// homogeneous slice computes, which k*x need not be.
func repeatSum(x float64, k int) float64 {
	total := 0.0
	for range k {
		total += x
	}
	return total
}

// sumWorkers returns Σ f(c_j) over the worker capabilities in worker
// order, evaluating f once when the workers are homogeneous.
func (s shape) sumWorkers(f func(cw float64) float64) float64 {
	if s.workers == nil {
		return repeatSum(f(s.minC), s.n)
	}
	total := 0.0
	for _, w := range s.workers {
		total += f(w.GFLOPS)
	}
	return total
}

// bottleneck computes the worker CPU utilization u (paper Sec. 3,
// "Estimating resource utilization of workers") and the effective
// synchronization bandwidth of the PS tier. The effective bandwidth is the
// NIC supply capped by what the PS CPUs can process, using the profiled
// CPU-per-byte ratio cprof/bprof — the same demand/supply principle, with
// the measurement already in hand.
func (Cynthia) bottleneck(p *Profile, s shape) (u, beff float64) {
	cbase := p.Base.GFLOPS
	var rscale float64
	switch p.Workload.Sync {
	case model.ASP:
		rscale = s.sumWorkers(func(cw float64) float64 { return cw }) / cbase // Eq. (7), ASP
	default:
		rscale = float64(s.n) * s.minC / cbase // Eq. (7), BSP
	}
	cdem := p.CprofGFLOPS * rscale // Eq. (6)
	bdem := p.BprofMBps * rscale

	u = 1.0
	if cdem > s.csup || bdem > s.bsup {
		u = math.Min(s.bsup/bdem, s.csup/cdem)
	}

	beff = s.bsup
	if p.CprofGFLOPS > 0 {
		beff = math.Min(s.bsup, s.csup*p.BprofMBps/p.CprofGFLOPS)
	}
	return u, beff
}

// iterTime evaluates Eq. (3)-(7) on a validated cluster shape: the one
// definition behind both IterTime and PredictHomogeneous.
func (c Cynthia) iterTime(p *Profile, s shape) float64 {
	u, beff := c.bottleneck(p, s)
	syncMB := 2 * p.GparamMB
	switch p.Workload.Sync {
	case model.ASP:
		// Mean iteration time = n / Σ 1/titer_j.
		sumRate := s.sumWorkers(func(cw float64) float64 {
			return 1 / (p.WiterGFLOPs/(cw*u) + syncMB/beff) // 1/titer_j, Eq. (4)
		})
		return float64(s.n) / sumRate
	default:
		tcomp := p.WiterGFLOPs / (float64(s.n) * s.minC * u) // Eq. (4)
		tcomm := syncMB * float64(s.n) / beff                // Eq. (5)
		return math.Max(tcomp, tcomm)                        // Eq. (3), overlapped
	}
}

// makespan is the paper's Eq. (2): for BSP every round is one
// iteration; for ASP the budget is spread across the n workers
// proportionally to their iteration rates.
func makespan(p *Profile, n int, titer float64, iters int) float64 {
	if p.Workload.Sync == model.ASP {
		return float64(iters) * titer / float64(n)
	}
	return float64(iters) * titer
}

func checkCluster(p *Profile, n, nps int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if n < 1 || nps < 1 {
		return fmt.Errorf("perf: cluster needs >=1 worker and >=1 PS")
	}
	return nil
}

func checkIters(iters int) error {
	if iters <= 0 {
		return fmt.Errorf("perf: iteration count %d must be positive", iters)
	}
	return nil
}

// WorkerUtilization predicts the worker CPU utilization on the cluster
// (the u of the paper's Sec. 3), in [0, 1].
func (c Cynthia) WorkerUtilization(p *Profile, cluster cloud.ClusterSpec) float64 {
	u, _ := c.bottleneck(p, specShape(cluster))
	return u
}

// IterTime implements Predictor using the paper's Eq. (3)-(5).
func (c Cynthia) IterTime(p *Profile, cluster cloud.ClusterSpec) (float64, error) {
	if err := checkCluster(p, cluster.NumWorkers(), cluster.NumPS()); err != nil {
		return 0, err
	}
	return c.iterTime(p, specShape(cluster)), nil
}

// TrainingTime implements Predictor using the paper's Eq. (2).
func (c Cynthia) TrainingTime(p *Profile, cluster cloud.ClusterSpec, iters int) (float64, error) {
	if err := checkIters(iters); err != nil {
		return 0, err
	}
	titer, err := c.IterTime(p, cluster)
	if err != nil {
		return 0, err
	}
	return makespan(p, cluster.NumWorkers(), titer, iters), nil
}

// PredictHomogeneous implements HomogeneousPredictor: Eq. (2)-(7) on n
// workers and nps PS nodes of type t, in O(n+nps) scalar work and without
// allocating.
func (c Cynthia) PredictHomogeneous(p *Profile, t cloud.InstanceType, n, nps, iters int) (iterTime, trainingTime float64, err error) {
	if err := checkIters(iters); err != nil {
		return 0, 0, err
	}
	if err := checkCluster(p, n, nps); err != nil {
		return 0, 0, err
	}
	titer := c.iterTime(p, homogeneousShape(t, n, nps))
	return titer, makespan(p, n, titer, iters), nil
}

// PredictionError returns |predicted-observed|/observed, the metric the
// paper reports for Figs. 6-10.
func PredictionError(predicted, observed float64) float64 {
	if observed == 0 {
		return math.Inf(1)
	}
	return math.Abs(predicted-observed) / observed
}
