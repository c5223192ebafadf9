package plan

// The search engine: per-instance-type scans over the shared enumerator
// and evaluator, run serially in catalog order with context cancellation
// and Algorithm 1's early break.

import (
	"context"
	"fmt"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/obs/journal"
)

// Provisioner plans cost-efficient clusters for (deadline, loss) goals.
// It is implemented by the Cynthia Engine (Algorithm 1) and by
// baseline.MarginalGain (the Optimus-style comparator), so the controller,
// the plan service, and the experiments can swap strategies freely.
type Provisioner interface {
	// Search returns the strategy's chosen plan and what the search cost:
	// the candidates it evaluated to find it, which for the Engine is
	// Algorithm 1's early-break scan, not the whole space. When no
	// candidate meets the goal, the chosen plan is the best-effort
	// (fastest predicted) one with Feasible=false.
	Search(ctx context.Context, req Request) (Result, error)
	// Candidates returns every configuration Search considers for req,
	// ranked by Rank. Only callers that need alternatives to the chosen
	// plan pay for the list: the controller's on-demand fallback, when
	// the spot market refuses a spot launch.
	Candidates(ctx context.Context, req Request) ([]Plan, error)
}

// SearchStats summarizes how hard one search worked: how many instance
// types were scanned, how many candidates the search actually evaluated
// versus the unpruned space (Pruned is the difference, which the Theorem
// 4.1 bounds and the early break remove together), and how many evaluated
// candidates met the goal. The Engine's Search stops each type at its
// first feasible candidate, so its Feasible counts the types that have
// one. Strategies without a bounded space (baseline.MarginalGain) leave
// Pruned zero.
type SearchStats struct {
	Types      int
	Enumerated int
	Pruned     int
	Feasible   int
}

// Result is the answer to one search: the plan the strategy selects and
// how many candidates it evaluated to find it.
type Result struct {
	Plan  Plan
	Stats SearchStats
}

// SearchWith runs one search with prov.
func SearchWith(ctx context.Context, prov Provisioner, req Request) (Result, error) {
	return prov.Search(ctx, req)
}

// Engine is the Cynthia search core implementing Algorithm 1 over the
// Theorem 4.1-bounded space. It is stateless; the zero value is ready to
// use.
type Engine struct{}

// DefaultEngine backs the package-level Provision and Candidates.
var DefaultEngine = &Engine{}

var _ Provisioner = (*Engine)(nil)

// Provision runs Algorithm 1 and returns only its plan: Search's plan
// without the stats.
func (e *Engine) Provision(ctx context.Context, req Request) (Plan, error) {
	res, err := e.Search(ctx, req)
	return res.Plan, err
}

// Candidates implements Provisioner: it evaluates every configuration
// Algorithm 1 would consider — without the early break — and returns them
// ranked by Rank. Besides the on-demand fallback, it is the inspection
// companion to Search: plot it, or audit why a plan was (not) chosen.
func (e *Engine) Candidates(ctx context.Context, req Request) ([]Plan, error) {
	var ranked []Plan
	if _, err := e.search(ctx, req, &ranked); err != nil {
		return nil, err
	}
	Rank(ranked)
	return ranked, nil
}

// Search implements Provisioner by running Algorithm 1: for each instance
// type, compute the bounds, scan the enumerator's candidates up to the
// first whose predicted training time meets the goal (the algorithm's
// early break), and return the cheapest such plan across types. If no
// candidate meets the goal anywhere, the fastest predicted plan is
// returned with Feasible=false. Stats count the candidates evaluated, so
// a type is scanned in full only when none of its candidates is feasible.
func (e *Engine) Search(ctx context.Context, req Request) (Result, error) {
	out, err := e.search(ctx, req, nil)
	if err != nil {
		return Result{}, err
	}
	pl, err := e.selectPlan(req, out)
	if err != nil {
		return Result{}, err
	}
	return Result{Plan: pl, Stats: out.stats}, nil
}

// typeResult is the outcome of scanning one instance type.
type typeResult struct {
	first      Plan // first feasible candidate in scan order (the Algorithm 1 per-type pick)
	haveFirst  bool
	effort     Plan // fastest-predicted infeasible candidate
	haveEffort bool
	scanned    int // candidates evaluated for this type
	feasibleN  int // evaluated candidates meeting the goal
}

// searchOut is the reduction of the per-type scans.
type searchOut struct {
	best       Plan
	haveBest   bool
	effort     Plan
	haveEffort bool
	stats      SearchStats
}

// fold reduces one type's result into the search. Types are folded in
// catalog order with strict comparisons, so ties break toward the earlier
// type.
func (out *searchOut) fold(r *typeResult) {
	if r.haveFirst && (!out.haveBest || r.first.Cost < out.best.Cost) {
		out.best, out.haveBest = r.first, true
	}
	if r.haveEffort && (!out.haveEffort || r.effort.PredTime < out.effort.PredTime) {
		out.effort, out.haveEffort = r.effort, true
	}
	out.stats.Enumerated += r.scanned
	out.stats.Feasible += r.feasibleN
}

// scanType runs the Algorithm 1 inner loops for one instance type over
// the shared enumerator and evaluator. The scan stops at the type's first
// feasible candidate (Algorithm 1 line 11) unless collect is non-nil:
// then it evaluates every candidate and appends each to collect in
// enumeration order. A type whose Theorem 4.1 bounds cannot be computed
// (an unreachable loss target, say) offers nothing.
func scanType(ctx context.Context, cfg normalized, ev *evaluator, t cloud.InstanceType, res *typeResult, collect *[]Plan) error {
	bounds, err := ComputeBounds(cfg.profile, t, cfg.goal)
	if err != nil {
		return nil
	}
	if bounds.LowerWorkers > MaxWorkers {
		// The quota alone rules this type out; still expose the quota
		// point as a best-effort candidate (or as the type's pick, should
		// a profile the bounds misjudge meet the goal there after all).
		if cand, err := ev.evaluate(t, MaxWorkers, min(bounds.PS, MaxWorkers)); err == nil {
			res.record(&cand, collect)
		}
		return nil
	}
	var scanErr error
	enumerate(cfg, t, bounds, func(n, nps int) bool {
		if err := ctx.Err(); err != nil {
			scanErr = err
			return false
		}
		cand, err := ev.evaluate(t, n, nps)
		if err != nil {
			return true
		}
		if res.record(&cand, collect) && collect == nil {
			return false // Algorithm 1 line 11: the first feasible candidate ends the type's scan
		}
		return true
	})
	return scanErr
}

// record books one evaluated candidate into the type's result (and onto
// a non-nil collect) and reports whether it met the goal.
func (res *typeResult) record(cand *Plan, collect *[]Plan) bool {
	res.scanned++
	if collect != nil {
		*collect = append(*collect, *cand)
	}
	if cand.Feasible {
		res.feasibleN++
		if !res.haveFirst {
			res.first, res.haveFirst = *cand, true
		}
		return true
	}
	if !res.haveEffort || cand.PredTime < res.effort.PredTime {
		res.effort, res.haveEffort = *cand, true
	}
	return false
}

// search scans the types in catalog order and folds each type's result
// into the reduction as soon as its scan ends. A nil collect runs
// Algorithm 1's early break; a non-nil one scans everything and receives
// every evaluated candidate in scan order, for Candidates to rank. The
// scan is serial: a type scan costs a few microseconds, less than handing
// it to another goroutine.
func (e *Engine) search(ctx context.Context, req Request, collect *[]Plan) (searchOut, error) {
	m := planObs()
	start := time.Now()
	defer func() { m.latency.Observe(time.Since(start).Seconds()) }()

	cfg, err := req.normalize()
	if err != nil {
		m.errored.Inc()
		return searchOut{}, err
	}
	types := cfg.catalog.Types()
	searchSpace := len(types) * MaxWorkers * (maxPSEscalations + 1)
	m.searchSpace.Add(int64(searchSpace))
	// The Enabled guards keep the hot path allocation-free when no flight
	// recorder is attached: field construction formats numbers.
	if cfg.journal.Enabled() {
		cfg.journal.Emit(journal.PlanSearchStart,
			journal.F("workload", cfg.profile.Workload.Name),
			journal.Ffloat("goal_sec", cfg.goal.TimeSec),
			journal.Ffloat("loss_target", cfg.goal.LossTarget),
			journal.Fint("types", len(types)),
			journal.Fint("max_workers", MaxWorkers),
			journal.Fint("search_space", searchSpace))
	}

	out := searchOut{stats: SearchStats{Types: len(types)}}
	ev := evaluator{cfg: cfg}
	for _, t := range types {
		var r typeResult
		if err := scanType(ctx, cfg, &ev, t, &r, collect); err != nil {
			m.cancelled.Inc()
			return searchOut{}, err // a cancelled search journals no plan.search.done
		}
		out.fold(&r)
	}
	out.stats.Pruned = max(searchSpace-out.stats.Enumerated, 0)
	m.scanned.Add(int64(out.stats.Enumerated))
	m.feasible.Add(int64(out.stats.Feasible))
	if cfg.journal.Enabled() {
		outcome := "none"
		switch {
		case out.haveBest:
			outcome = "feasible"
		case out.haveEffort:
			outcome = "best_effort"
		}
		cfg.journal.Emit(journal.PlanSearchDone,
			journal.Fint("enumerated", out.stats.Enumerated),
			journal.Fint("pruned", out.stats.Pruned),
			journal.Fint("feasible", out.stats.Feasible),
			journal.F("outcome", outcome))
	}
	return out, nil
}

// selectPlan turns a reduced search into the Algorithm 1 answer.
func (e *Engine) selectPlan(req Request, out searchOut) (Plan, error) {
	m := planObs()
	switch {
	case out.haveBest:
		m.feasibleRuns.Inc()
		return out.best, nil
	case out.haveEffort:
		m.bestEffort.Inc()
		return out.effort, nil
	}
	m.errored.Inc()
	return Plan{}, fmt.Errorf("plan: no provisioning candidate for %s (goal %.0fs / loss %.3f)",
		req.Profile.Workload.Name, req.Goal.TimeSec, req.Goal.LossTarget)
}
