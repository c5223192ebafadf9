package plan

// The candidate evaluator: prices one (type, n, nps) configuration under
// the request's predictor and goal. Eq. (8) lives here (exported as Cost)
// and the loss-model inversion is memoized per search — the BSP iteration
// budget does not depend on the worker count, so one IterationsToLoss
// solve serves every candidate of a BSP search.

import (
	"slices"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

// Cost implements Eq. (8): the monetary cost of running workers+ps dockers
// of type t for the given duration in seconds, billed per second. This is
// the one definition of the paper's objective; the planner, the controller,
// the pipeline, and the experiment tables all price clusters through it.
func Cost(t cloud.InstanceType, workers, ps int, seconds float64) float64 {
	return t.PricePerHour * float64(workers+ps) * seconds / 3600
}

// Rank sorts plans in place into the canonical presentation order:
// feasible plans first, then ascending cost within each group. The sort is
// stable so equal-cost candidates keep their enumeration (catalog) order.
// It stable-sorts compact (feasible, cost, index) keys and then permutes
// the plans once; slices.SortStableFunc runs the same insertion-sort +
// symMerge algorithm as sort.SliceStable, so the order — NaN costs
// included — is the one a direct sort of the plans produces.
func Rank(plans []Plan) {
	type key struct {
		cost     float64
		idx      int
		feasible bool
	}
	keys := make([]key, len(plans))
	for i := range plans {
		keys[i] = key{cost: plans[i].Cost, idx: i, feasible: plans[i].Feasible}
	}
	slices.SortStableFunc(keys, func(a, b key) int {
		switch {
		case a.feasible != b.feasible:
			if a.feasible {
				return -1
			}
			return 1
		case a.cost < b.cost:
			return -1
		case b.cost < a.cost:
			return 1
		}
		return 0
	})
	// Position i receives plans[keys[i].idx]: follow each permutation
	// cycle once, marking visited keys with idx -1.
	for start := range keys {
		if keys[start].idx < 0 {
			continue
		}
		first := plans[start]
		for i := start; ; {
			j := keys[i].idx
			keys[i].idx = -1
			if j == start {
				plans[i] = first
				break
			}
			plans[i] = plans[j]
			i = j
		}
	}
}

// evaluator prices candidates for one search run. Its memo holds the
// iteration budgets solved so far: one BSP budget, or ASP budgets indexed
// by worker count (0 = not yet solved). The memo is an array, so an
// evaluator lives on its search's stack; the zero memo is ready to use.
type evaluator struct {
	cfg normalized
	bsp int
	asp [MaxWorkers + 1]int
}

// iterations returns the iteration budget reaching the loss target at n
// workers (Eq. 15 for BSP, the ASP inversion of Eq. 1), solving the loss
// model at most once per distinct budget.
func (ev *evaluator) iterations(n int) (int, error) {
	w := ev.cfg.profile.Workload
	memo := &ev.bsp // BSP budgets are n-independent
	if w.Sync == model.ASP {
		if n < 0 || n >= len(ev.asp) {
			return w.IterationsToLoss(ev.cfg.goal.LossTarget, n)
		}
		memo = &ev.asp[n]
	}
	if *memo > 0 {
		return *memo, nil
	}
	it, err := w.IterationsToLoss(ev.cfg.goal.LossTarget, n)
	if err != nil {
		return 0, err
	}
	*memo = it
	return it, nil
}

// predict returns the predicted iteration and training times of n workers
// and nps PS nodes of type t. Predictors with the homogeneous fast path
// answer from (t, n, nps) directly; any other predictor is asked through
// IterTime and TrainingTime on the materialised cloud.Homogeneous spec.
func (ev *evaluator) predict(t cloud.InstanceType, n, nps, iters int) (titer, total float64, err error) {
	if ev.cfg.fast != nil {
		return ev.cfg.fast.PredictHomogeneous(ev.cfg.profile, t, n, nps, iters)
	}
	cluster := cloud.Homogeneous(t, n, nps)
	if titer, err = ev.cfg.pred.IterTime(ev.cfg.profile, cluster); err != nil {
		return 0, 0, err
	}
	total, err = ev.cfg.pred.TrainingTime(ev.cfg.profile, cluster, iters)
	return titer, total, err
}

// evaluate prices one candidate configuration.
func (ev *evaluator) evaluate(t cloud.InstanceType, n, nps int) (Plan, error) {
	iters, err := ev.iterations(n)
	if err != nil {
		return Plan{}, err
	}
	titer, total, err := ev.predict(t, n, nps, iters)
	if err != nil {
		return Plan{}, err
	}
	feasible := total <= ev.cfg.goal.TimeSec
	return Plan{
		Type:         t,
		Workers:      n,
		PS:           nps,
		Iterations:   iters,
		PredIterTime: titer,
		PredTime:     total,
		Cost:         Cost(t, n, nps, total),
		Feasible:     feasible,
	}, nil
}

// Evaluate prices a single explicit configuration under the request's
// predictor and (headroom-adjusted) goal — the one-candidate entry point
// to the engine's evaluator, for Provisioner implementations and what-if
// tools that pick their own configurations. Normalize leaves the goal
// as given, so a pre-Normalized request gets the reserve exactly once.
func Evaluate(req Request, t cloud.InstanceType, n, nps int) (Plan, error) {
	cfg, err := req.normalize()
	if err != nil {
		return Plan{}, err
	}
	ev := evaluator{cfg: cfg}
	return ev.evaluate(t, n, nps)
}
