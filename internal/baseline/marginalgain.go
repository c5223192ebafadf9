package baseline

import (
	"context"
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/plan"
)

// MarginalGain is the Optimus-style resource allocator of Peng et al.
// (EuroSys 2018), adapted to Cynthia's goal model so it can stand in for
// Algorithm 1 behind the plan.Provisioner interface: starting from the
// smallest legal cluster of each instance type (1 worker + 1 PS), it
// repeatedly adds the docker — one more worker, or one more PS where
// Constraint (11) permits — whose addition yields the greater reduction in
// predicted training time, and stops when the (headroom-adjusted) goal is
// met, the worker quota is reached, or no addition improves the estimate.
// The cheapest goal-meeting allocation across types wins.
//
// Unlike the Cynthia engine it has no Theorem 4.1 bounds and no loss-aware
// escalation: the greedy trajectory can stall in a local optimum (adding
// either docker briefly slows the predicted run even though a larger
// cluster would meet the goal), which is exactly the behavior the paper
// contrasts against in Sec. 5.2. Pair it with the fitted Optimus predictor
// for the full comparator, or with perf.Cynthia to isolate the allocation
// policy from the performance model.
type MarginalGain struct{}

var _ plan.Provisioner = MarginalGain{}

// Name identifies the strategy (for reports and CLI flags).
func (MarginalGain) Name() string { return "Optimus-MG" }

// Search implements plan.Provisioner: the cheapest goal-meeting final
// allocation across types, and how many configurations the greedy
// trajectories evaluated.
func (g MarginalGain) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	return g.search(ctx, req, nil)
}

// Candidates implements plan.Provisioner: every configuration the greedy
// trajectories evaluated, ranked like the engine's candidate list.
func (g MarginalGain) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	var ranked []plan.Plan
	if _, err := g.search(ctx, req, &ranked); err != nil {
		return nil, err
	}
	plan.Rank(ranked)
	return ranked, nil
}

// search climbs every instance type and picks the winner; a non-nil
// collect receives every trajectory, for Candidates to rank.
func (g MarginalGain) search(ctx context.Context, req plan.Request, collect *[]plan.Plan) (plan.Result, error) {
	nreq, err := req.Normalize()
	if err != nil {
		return plan.Result{}, err
	}
	var best, effort plan.Plan
	var stats plan.SearchStats
	haveBest, haveEffort := false, false
	for _, t := range nreq.Catalog.Types() {
		if err := ctx.Err(); err != nil {
			return plan.Result{}, err
		}
		final, trajectory, ok := g.climb(ctx, nreq, t)
		if !ok {
			continue
		}
		stats.Types++
		stats.Enumerated += len(trajectory)
		for _, c := range trajectory {
			if c.Feasible {
				stats.Feasible++
			}
		}
		if collect != nil {
			*collect = append(*collect, trajectory...)
		}
		if final.Feasible {
			if !haveBest || final.Cost < best.Cost {
				best, haveBest = final, true
			}
		} else if !haveEffort || final.PredTime < effort.PredTime {
			effort, haveEffort = final, true
		}
	}
	switch {
	case haveBest:
		return plan.Result{Plan: best, Stats: stats}, nil
	case haveEffort:
		return plan.Result{Plan: effort, Stats: stats}, nil
	}
	return plan.Result{}, fmt.Errorf("baseline: no marginal-gain candidate for %s (goal %.0fs / loss %.3f)",
		nreq.Profile.Workload.Name, req.Goal.TimeSec, req.Goal.LossTarget)
}

// climb runs one greedy trajectory on instance type t. It returns the
// final allocation, every configuration evaluated along the way, and
// whether the type produced any valid configuration at all.
func (g MarginalGain) climb(ctx context.Context, req plan.Request, t cloud.InstanceType) (plan.Plan, []plan.Plan, bool) {
	cur, err := plan.Evaluate(req, t, 1, 1)
	if err != nil {
		return plan.Plan{}, nil, false
	}
	trajectory := []plan.Plan{cur}
	for !cur.Feasible && ctx.Err() == nil {
		next := cur
		moved := false
		// Candidate moves: one more worker (quota permitting), one more
		// PS (Constraint 11 keeps PS <= workers). Both add one docker of
		// the same price, so the larger time reduction is the larger
		// marginal gain per dollar.
		if cur.Workers < plan.MaxWorkers {
			if c, err := plan.Evaluate(req, t, cur.Workers+1, cur.PS); err == nil {
				trajectory = append(trajectory, c)
				if c.PredTime < next.PredTime {
					next, moved = c, true
				}
			}
		}
		if cur.PS+1 <= cur.Workers {
			if c, err := plan.Evaluate(req, t, cur.Workers, cur.PS+1); err == nil {
				trajectory = append(trajectory, c)
				if c.PredTime < next.PredTime {
					next, moved = c, true
				}
			}
		}
		if !moved {
			break // no positive marginal gain: the greedy climb stalls
		}
		cur = next
	}
	return cur, trajectory, true
}
