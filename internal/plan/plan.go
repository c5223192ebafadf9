// Package plan implements Cynthia's cost-efficient cloud resource
// provisioning strategy (paper Sec. 4): given a training deadline Tg and a
// target loss lg, pick the instance type and the number of workers and PS
// nodes that meet the goal at minimum monetary cost (Eq. 8-11), using
// Theorem 4.1's bounds to keep the search space small and Algorithm 1 to
// scan it.
//
// The package is layered as a search engine:
//
//   - Request.Normalize validates a request and fills in its predictor
//     and catalog; the search core then folds the Headroom reserve into
//     the deadline once.
//   - enumerate streams the (type, nps, n) configurations honoring the
//     Theorem 4.1 bounds, the MaxWorkers quota, and Constraint (11).
//   - evaluator prices candidates (Eq. 8 via the exported Cost), memoizing
//     the loss-model inversion per search. When the predictor implements
//     perf.HomogeneousPredictor (perf.Cynthia does) a candidate is priced
//     from (type, n, nps) in closed form, bit-identical to the
//     ClusterSpec path and without allocating; other predictors see the
//     materialised cloud.Homogeneous cluster.
//   - Engine scans instance types serially in the catalog's name order
//     with context cancellation. Its Search runs Algorithm 1's early
//     break, ending each type's scan at its first feasible candidate, and
//     folds each type into the answer as its scan ends; on a shared
//     catalog without a flight recorder it allocates nothing. Candidates,
//     the rare on-demand fallback, is the only exhaustive scan. A per-type
//     parallel scan was measured slower than serial at 2 procs (a type
//     scan costs less than a goroutine hand-off) and removed.
//
// Provision and Candidates are thin wrappers over DefaultEngine.
package plan

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
)

// planMetrics instrument Algorithm 1 on the default registry: how long a
// search takes, how many candidates the search actually evaluated versus
// the unpruned search space (the Theorem 4.1 bounds and the early break
// together), and how runs conclude. The outcome children are resolved
// once, so a search makes no labelled lookup.
type planMetrics struct {
	latency      *obs.Histogram
	scanned      *obs.Counter
	feasible     *obs.Counter
	searchSpace  *obs.Counter
	feasibleRuns *obs.Counter
	bestEffort   *obs.Counter
	errored      *obs.Counter
	cancelled    *obs.Counter
}

var (
	metricsOnce sync.Once
	metrics     planMetrics
)

func planObs() *planMetrics {
	metricsOnce.Do(func() {
		reg := obs.Default()
		outcomes := reg.CounterVec("cynthia_plan_total",
			"Provision runs by outcome", "outcome")
		metrics = planMetrics{
			latency: reg.Histogram("cynthia_plan_latency_seconds",
				"wall time of one Provision (Algorithm 1) run", nil),
			scanned: reg.Counter("cynthia_plan_candidates_scanned_total",
				"candidate configurations evaluated by the bounded search"),
			feasible: reg.Counter("cynthia_plan_candidates_feasible_total",
				"evaluated candidates that met the goal"),
			searchSpace: reg.Counter("cynthia_plan_search_space_total",
				"unpruned candidate count (types x worker quota x PS escalations); scanned/search_space is the pruning ratio"),
			feasibleRuns: outcomes.With("feasible"),
			bestEffort:   outcomes.With("best_effort"),
			errored:      outcomes.With("error"),
			cancelled:    outcomes.With("cancelled"),
		}
	})
	return &metrics
}

// Goal is the training performance target: finish within TimeSec seconds
// having reached training loss LossTarget.
type Goal struct {
	TimeSec    float64
	LossTarget float64
}

// Validate checks the goal: both targets must be positive and finite.
func (g Goal) Validate() error {
	if !positiveFinite(g.TimeSec) {
		return fmt.Errorf("plan: goal time %.1fs must be positive and finite", g.TimeSec)
	}
	if !positiveFinite(g.LossTarget) {
		return fmt.Errorf("plan: goal loss %.3f must be positive and finite", g.LossTarget)
	}
	return nil
}

// positiveFinite rejects NaN (every comparison with it is false), ±Inf,
// zero and negatives.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Plan is a provisioning decision.
type Plan struct {
	// Type is the chosen instance type.
	Type cloud.InstanceType
	// Workers and PS are the provisioned docker counts.
	Workers int
	PS      int
	// Iterations is the iteration budget that reaches the loss target
	// (total across the cluster).
	Iterations int
	// PredIterTime and PredTime are the predictor's per-iteration and
	// end-to-end estimates (PredTime includes the ASP division across
	// workers).
	PredIterTime float64
	PredTime     float64
	// Cost is the predicted monetary cost in USD (Eq. 8).
	Cost float64
	// Feasible reports whether PredTime meets the goal. When no
	// candidate meets the goal the provisioner returns the best-effort
	// (fastest predicted) plan with Feasible=false.
	Feasible bool
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	status := "meets goal"
	if !p.Feasible {
		status = "BEST EFFORT (goal unmet)"
	}
	return fmt.Sprintf("%d x %s workers + %d PS, %d iterations, predicted %.0fs, $%.3f (%s)",
		p.Workers, p.Type.Name, p.PS, p.Iterations, p.PredTime, p.Cost, status)
}

// Bounds are the Theorem 4.1 search bounds for one instance type.
type Bounds struct {
	// LowerWorkers and UpperWorkers bracket the worker count.
	LowerWorkers int
	UpperWorkers int
	// PS is the minimum PS count (Eq. 18 / Eq. 22).
	PS int
	// Ratio is the maximum worker:PS provisioning ratio r (Eq. 12) that
	// keeps the PS bottleneck-free.
	Ratio float64
	// Iterations is the iteration budget at LowerWorkers (BSP budgets do
	// not depend on the worker count; ASP budgets grow with workers).
	Iterations int
}

// MaxRatio computes Eq. (12): the largest worker:PS ratio that avoids CPU
// and network bottlenecks on the PS. The PS demand scales with the
// provisioned compute (n·cwk/cbase, Eq. 6-7); keeping cdemand ≤ cps and
// bdemand ≤ bps per PS node yields
//
//	r = min( cbase·cps / (cprof·cwk),  bps·cbase / (bprof·cwk) ).
func MaxRatio(p *perf.Profile, t cloud.InstanceType) float64 {
	cbase := p.Base.GFLOPS
	cwk, cps, bps := t.GFLOPS, t.GFLOPS, t.NetMBps
	rCPU, rNet := math.Inf(1), math.Inf(1)
	if p.CprofGFLOPS > 0 {
		rCPU = cbase * cps / (p.CprofGFLOPS * cwk)
	}
	if p.BprofMBps > 0 {
		rNet = bps * cbase / (p.BprofMBps * cwk)
	}
	return math.Min(rCPU, rNet)
}

// ComputeBounds evaluates Theorem 4.1 for one instance type.
func ComputeBounds(p *perf.Profile, t cloud.InstanceType, goal Goal) (Bounds, error) {
	if err := p.Validate(); err != nil {
		return Bounds{}, err
	}
	if err := goal.Validate(); err != nil {
		return Bounds{}, err
	}
	w := p.Workload
	r := MaxRatio(p, t)
	cwk := t.GFLOPS
	bps := t.NetMBps
	syncMB := 2 * p.GparamMB

	switch w.Sync {
	case model.ASP:
		// Lower bound (cf. Eq. 13): per-worker iterations s(n) =
		// β0/(√n·(lg-β1)) must each fit witer/cwk of compute within
		// Tg, giving √n >= witer·β0/(cwk·Tg·(lg-β1)). (The paper's
		// printed bound drops the β1 shift; this is the exact algebra
		// and is never smaller than a valid lower bound.)
		if goal.LossTarget <= w.Loss.Beta1 {
			return Bounds{}, fmt.Errorf("plan: loss target %.3f below asymptote %.3f", goal.LossTarget, w.Loss.Beta1)
		}
		root := p.WiterGFLOPs * w.Loss.Beta0 / (cwk * goal.TimeSec * (goal.LossTarget - w.Loss.Beta1))
		lower := int(math.Ceil(root * root))
		if lower < 1 {
			lower = 1
		}
		nps := int(math.Ceil(float64(lower) / r)) // Eq. (22)
		if nps < 1 {
			nps = 1
		}
		upper := int(math.Ceil(r * float64(nps))) // Eq. (23)
		if upper < lower {
			upper = lower
		}
		iters, err := w.IterationsToLoss(goal.LossTarget, lower)
		if err != nil {
			return Bounds{}, err
		}
		return Bounds{LowerWorkers: lower, UpperWorkers: upper, PS: nps, Ratio: r, Iterations: iters}, nil
	default:
		s, err := w.IterationsToLoss(goal.LossTarget, 1) // Eq. (15): BSP budget is n-independent
		if err != nil {
			return Bounds{}, err
		}
		lower := int(math.Ceil(p.WiterGFLOPs * float64(s) / (goal.TimeSec * cwk))) // Eq. (16)
		if lower < 1 {
			lower = 1
		}
		u := math.Min(r, goal.TimeSec*bps/(2*float64(s)*p.GparamMB)) // Eq. (17)
		if u <= 0 {
			return Bounds{}, fmt.Errorf("plan: goal %.0fs leaves no communication budget", goal.TimeSec)
		}
		nps := int(math.Ceil(float64(lower) / u)) // Eq. (18)
		if nps < 1 {
			nps = 1
		}
		// Eq. (19): balance point between computation and communication.
		balance := math.Sqrt(p.WiterGFLOPs * float64(nps) * bps / (syncMB * cwk))
		upper := int(math.Ceil(math.Min(u*float64(nps), balance)))
		if upper < lower {
			upper = lower
		}
		return Bounds{LowerWorkers: lower, UpperWorkers: upper, PS: nps, Ratio: r, Iterations: s}, nil
	}
}

// Request configures a provisioning run: the paper's inputs (a profile,
// a goal and an instance catalog) plus the predictor and an optional
// flight-recorder binding.
type Request struct {
	// Profile is the workload profile (from internal/profile or
	// perf.SyntheticProfile).
	Profile *perf.Profile
	// Goal is the training target.
	Goal Goal
	// Predictor estimates iteration times; defaults to perf.Cynthia.
	// Substituting baseline.Optimus reproduces the paper's "modified
	// Optimus" comparator (Sec. 5.2).
	Predictor perf.Predictor
	// Catalog lists candidate instance types; defaults to
	// cloud.DefaultCatalog.
	Catalog *cloud.Catalog
	// Journal, when bound, receives the search's flight-recorder events,
	// correlated with the caller's trace and job IDs: plan.search.start
	// before the scan and plan.search.done, with the evaluated and pruned
	// counts, after it. A cancelled search journals no plan.search.done.
	Journal journal.Binding
}

// MaxWorkers caps the worker count of every candidate: the paper's
// 56-docker testbed. Without it the ASP loss model's √n term would let
// absurdly large clusters "meet" impossible deadlines.
const MaxWorkers = 56

// Headroom is the deadline safety margin: a candidate is feasible when
// its predicted time fits within (1-Headroom)·Tg. The analytical model is
// a few percent optimistic near PS saturation (transfer queueing it does
// not capture), so provisioning with a small reserve keeps the actual run
// inside the goal.
const Headroom = 0.07

// maxPSEscalations is how many PS counts above the Theorem 4.1 minimum
// the scan tries when no worker count in range meets the goal (this is
// how a second PS gets provisioned for tight goals, as in Figs. 12-13).
const maxPSEscalations = 3

// Provision runs Algorithm 1 on the DefaultEngine without cancellation.
// See Engine.Provision.
func Provision(req Request) (Plan, error) {
	return DefaultEngine.Provision(context.Background(), req)
}

// Candidates evaluates every configuration Algorithm 1 would consider on
// the DefaultEngine without cancellation. See Engine.Candidates.
func Candidates(req Request) ([]Plan, error) {
	return DefaultEngine.Candidates(context.Background(), req)
}
