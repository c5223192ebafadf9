package simtest

// Invariant checkers: every guarantee the paper states about a search
// result or a simulated run, expressed as a function returning an error
// describing the first violation. Property tests, metamorphic tests, and
// the golden replay all funnel through these, so a guarantee is written
// down exactly once.

import (
	"context"
	"fmt"
	"math"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// relTol is the relative tolerance for comparing independently recomputed
// floating-point quantities (costs, times). Checks against values that
// should be bit-identical use exact equality instead.
const relTol = 1e-9

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= relTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// CheckSearch runs one search for the request and audits the full
// Algorithm 1 contract against an independent reconstruction from the
// exported candidate stream (plan.EnumerateConfigs) and the exported
// single-candidate evaluator (plan.Evaluate):
//
//   - the chosen plan is the cheapest across instance types of each
//     type's first feasible candidate in scan order (Algorithm 1's early
//     break + cross-type min), bit-identical in every field;
//   - the search's Stats count exactly the candidates the early break
//     evaluates, and the types with a feasible one;
//   - the Theorem 4.1 bounds contain the chosen (workers, ps)
//     configuration — it appears in the enumerated stream;
//   - the ranked list Candidates returns for the same request holds at
//     least the candidates Search counted, is ordered feasible-first then
//     by ascending cost, contains the chosen plan, and agrees with it on
//     feasibility;
//   - the Eq. 6-7 worker utilization of the chosen cluster lies in
//     (0, 1];
//   - the plan's Cost matches Eq. 8 recomputed from its own fields, and
//     BSP's overlapped iteration time respects max(tcomp, tcomm) <=
//     tcomp + tcomm.
//
// It returns the search result for further use, or an error describing
// the first violated invariant. A request with no evaluable candidates at
// all (the engine's error path) is verified to truly have none.
func CheckSearch(req plan.Request) (plan.Result, error) {
	res, serr := plan.DefaultEngine.Search(context.Background(), req)
	ranked, cerr := plan.DefaultEngine.Candidates(context.Background(), req)

	nr, err := req.Normalize()
	if err != nil {
		if serr == nil {
			return res, fmt.Errorf("search accepted a request Normalize rejects: %v", err)
		}
		return res, nil // invalid request rejected everywhere: consistent
	}

	// Reconstruct Algorithm 1 independently: per type, walk the exact
	// candidate stream up to the first feasible configuration. A type
	// whose Theorem 4.1 lower bound exceeds the worker quota offers its
	// quota point alone.
	var best plan.Plan
	haveBest := false
	enumerated, feasibleTypes := 0, 0
	goal := nr.Goal
	goal.TimeSec *= 1 - float64(plan.Headroom) // the reserve the engine folds in
	for _, t := range nr.Catalog.Types() {
		// take evaluates one candidate and reports whether the type's
		// scan goes on.
		take := func(n, nps int) bool {
			cand, err := plan.Evaluate(nr, t, n, nps)
			if err != nil {
				return true
			}
			enumerated++
			if !cand.Feasible {
				return true
			}
			feasibleTypes++
			if !haveBest || cand.Cost < best.Cost {
				best, haveBest = cand, true
			}
			return false
		}
		if b, err := plan.ComputeBounds(nr.Profile, t, goal); err == nil && b.LowerWorkers > plan.MaxWorkers {
			take(plan.MaxWorkers, min(b.PS, plan.MaxWorkers))
			continue
		}
		if err := plan.EnumerateConfigs(nr, t, take); err != nil {
			return res, fmt.Errorf("enumerating %s: %v", t.Name, err)
		}
	}

	if serr != nil {
		if enumerated > 0 || haveBest {
			return res, fmt.Errorf("search failed (%v) but %d candidates were evaluable", serr, enumerated)
		}
		return res, nil // genuinely empty search space
	}
	pl := res.Plan

	if res.Stats.Enumerated != enumerated || res.Stats.Feasible != feasibleTypes {
		return res, fmt.Errorf("search counted %d evaluated (%d feasible); the early break evaluates %d (%d types feasible)",
			res.Stats.Enumerated, res.Stats.Feasible, enumerated, feasibleTypes)
	}

	// Cheapest first-feasible, bit-for-bit.
	if haveBest != pl.Feasible {
		return res, fmt.Errorf("feasibility mismatch: reconstruction=%v, engine plan=%+v", haveBest, pl)
	}
	if haveBest && pl != best {
		return res, fmt.Errorf("plan is not the cheapest first-feasible candidate:\n engine: %+v\n oracle: %+v", pl, best)
	}

	// Theorem 4.1 bounds contain the chosen configuration.
	if pl.Feasible {
		contained := false
		if err := plan.EnumerateConfigs(nr, pl.Type, func(n, nps int) bool {
			if n == pl.Workers && nps == pl.PS {
				contained = true
				return false
			}
			return true
		}); err != nil {
			return res, err
		}
		if !contained {
			return res, fmt.Errorf("chosen config %dx%s+%dPS outside the Theorem 4.1 enumeration", pl.Workers, pl.Type.Name, pl.PS)
		}
	}

	// Ranked ordering and membership.
	if cerr != nil {
		return res, fmt.Errorf("search succeeded but candidates failed: %v", cerr)
	}
	if err := CheckRanked(res, ranked); err != nil {
		return res, err
	}

	// Eq. 6-7 utilization, Eq. 8 cost, Eq. 3 overlap.
	if err := CheckPlanModel(nr, pl); err != nil {
		return res, err
	}
	for _, cand := range ranked {
		if !closeRel(cand.Cost, plan.Cost(cand.Type, cand.Workers, cand.PS, cand.PredTime)) {
			return res, fmt.Errorf("ranked candidate cost %.9f violates Eq. 8: %+v", cand.Cost, cand)
		}
	}
	return res, nil
}

// CheckRanked verifies a ranked candidate list against the search result
// for the same request: the list holds at least the candidates (and the
// feasible ones) the search's Stats counted, is ordered feasible-first
// then ascending cost within each group, contains the chosen plan, and
// agrees with it on feasibility.
func CheckRanked(res plan.Result, ranked []plan.Plan) error {
	if len(ranked) < res.Stats.Enumerated {
		return fmt.Errorf("%d ranked candidates, search enumerated %d", len(ranked), res.Stats.Enumerated)
	}
	seenInfeasible := false
	prevCost := math.Inf(-1)
	found := false
	feasible := 0
	for i, c := range ranked {
		if !c.Feasible {
			if !seenInfeasible {
				seenInfeasible = true
				prevCost = math.Inf(-1)
			}
		} else if seenInfeasible {
			return fmt.Errorf("ranked[%d] feasible after infeasible candidates", i)
		}
		if c.Cost < prevCost-float64(relTol*(1+prevCost)) {
			return fmt.Errorf("ranked[%d] cost %.9f below predecessor %.9f", i, c.Cost, prevCost)
		}
		prevCost = c.Cost
		if c == res.Plan {
			found = true
		}
		if c.Feasible {
			feasible++
		}
	}
	if feasible < res.Stats.Feasible {
		return fmt.Errorf("%d feasible ranked candidates, search counted %d", feasible, res.Stats.Feasible)
	}
	if len(ranked) == 0 {
		return nil
	}
	if !found {
		return fmt.Errorf("chosen plan %+v not among %d ranked candidates", res.Plan, len(ranked))
	}
	if ranked[0].Feasible != res.Plan.Feasible {
		return fmt.Errorf("ranked[0].Feasible=%v disagrees with plan.Feasible=%v",
			ranked[0].Feasible, res.Plan.Feasible)
	}
	return nil
}

// CheckPlanModel audits the chosen plan against the performance model:
// Eq. 6-7 worker utilization in (0, 1], Eq. 8 cost recomputed from the
// plan's own fields, and — for BSP — the Eq. 3 overlap bound
// max(tcomp, tcomm) <= tcomp + tcomm, with tcomp and tcomm recomputed
// from the profile via Eq. 4-5.
func CheckPlanModel(req plan.Request, pl plan.Plan) error {
	p := req.Profile
	cluster := cloud.Homogeneous(pl.Type, pl.Workers, pl.PS)
	u := perf.Cynthia{}.WorkerUtilization(p, cluster)
	if !(u > 0 && u <= 1+relTol) {
		return fmt.Errorf("Eq. 6-7 worker utilization %v outside (0,1] for %+v", u, pl)
	}
	if !closeRel(pl.Cost, plan.Cost(pl.Type, pl.Workers, pl.PS, pl.PredTime)) {
		return fmt.Errorf("plan cost %.9f violates Eq. 8 (price %.3f x %d dockers x %.3fs)",
			pl.Cost, pl.Type.PricePerHour, pl.Workers+pl.PS, pl.PredTime)
	}
	if p.Workload.Sync != model.BSP {
		return nil
	}
	titer, err := perf.Cynthia{}.IterTime(p, cluster)
	if err != nil {
		return err
	}
	// Sequential oracle: tcomp per Eq. 4, tcomm per Eq. 5 with the
	// effective PS bandwidth capped by what the PS CPUs can process.
	n := float64(cluster.NumWorkers())
	tcomp := p.WiterGFLOPs / (n * cluster.MinWorkerGFLOPS() * u)
	beff := cluster.TotalPSNetMBps()
	if p.CprofGFLOPS > 0 {
		beff = math.Min(beff, cluster.TotalPSGFLOPS()*p.BprofMBps/p.CprofGFLOPS)
	}
	tcomm := 2 * p.GparamMB * n / beff
	if titer > tcomp+tcomm+float64(relTol*(1+tcomp+tcomm)) {
		return fmt.Errorf("BSP overlap bound violated: titer %.6f > tcomp %.6f + tcomm %.6f", titer, tcomp, tcomm)
	}
	return nil
}

// CheckSimResult audits one simulated run against its options: measured
// utilizations in [0, 1], iteration accounting, interruption/checkpoint
// bookkeeping, and the loss curve's global-iteration offset.
func CheckSimResult(opt ddnnsim.Options, want int, res *ddnnsim.Result) error {
	for i, u := range res.WorkerCPUUtil {
		if u < 0 || u > 1+relTol {
			return fmt.Errorf("worker %d CPU utilization %v outside [0,1]", i, u)
		}
	}
	for i, u := range res.PSCPUUtil {
		if u < 0 || u > 1+relTol {
			return fmt.Errorf("ps %d CPU utilization %v outside [0,1]", i, u)
		}
	}
	for i, u := range res.PSNICUtil {
		if u < 0 || u > 1+relTol {
			return fmt.Errorf("ps %d NIC utilization %v outside [0,1]", i, u)
		}
	}
	if res.Interrupted {
		if res.Fault == nil {
			return fmt.Errorf("interrupted run reports no fault")
		}
		if res.Iterations >= want {
			return fmt.Errorf("interrupted run completed all %d iterations", want)
		}
		if opt.CheckpointEvery > 0 {
			if res.CheckpointIter%opt.CheckpointEvery != 0 {
				return fmt.Errorf("checkpoint %d not a multiple of cadence %d", res.CheckpointIter, opt.CheckpointEvery)
			}
			if res.CheckpointIter > res.Iterations {
				return fmt.Errorf("checkpoint %d beyond completed %d", res.CheckpointIter, res.Iterations)
			}
		} else if res.CheckpointIter != 0 {
			return fmt.Errorf("checkpoint %d without checkpointing enabled", res.CheckpointIter)
		}
		if res.LostIterations != res.Iterations-res.CheckpointIter {
			return fmt.Errorf("lost %d != completed %d - checkpointed %d",
				res.LostIterations, res.Iterations, res.CheckpointIter)
		}
	} else if res.Iterations != want {
		return fmt.Errorf("run completed %d of %d iterations without interruption", res.Iterations, want)
	}
	if res.Iterations > 0 && !closeRel(res.MeanIterTime, res.TrainingTime/float64(res.Iterations)) {
		return fmt.Errorf("mean iteration time %.6f inconsistent with %.3fs / %d",
			res.MeanIterTime, res.TrainingTime, res.Iterations)
	}
	perWorker := 0
	for _, n := range res.PerWorkerIterations {
		perWorker += n
	}
	// BSP counts a round once in Iterations but every worker computes it.
	if perWorker < res.Iterations {
		return fmt.Errorf("per-worker iteration sum %d below completed %d", perWorker, res.Iterations)
	}
	for i := 1; i < len(res.Loss); i++ {
		if res.Loss[i].Iter <= res.Loss[i-1].Iter || res.Loss[i].Time < res.Loss[i-1].Time {
			return fmt.Errorf("loss curve not monotone at sample %d", i)
		}
	}
	if len(res.Loss) > 0 && res.Loss[0].Iter <= opt.StartIteration {
		return fmt.Errorf("loss curve starts at iteration %d, not after resume offset %d",
			res.Loss[0].Iter, opt.StartIteration)
	}
	return nil
}
