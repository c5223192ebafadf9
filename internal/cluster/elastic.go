package cluster

// elastic.go is the continuous optimizer: whenever the provider has a
// spot market attached (Provider.SetMarket; the market lives nowhere
// else), the controller re-evaluates the provisioning decision at
// price-trace change-points — not just on failure — and grows, shrinks,
// or re-homes the worker set mid-training when a different plan beats the current
// one against the residual deadline budget Tg' = Tg − elapsed.
//
// Determinism and crash-safety rest on two properties. First, every
// decision input is a stateless function of (trace, provider clock):
// nothing about market position lives outside the traces, so a
// restarted master at the same clock instant re-derives the same
// decision. Second, the elastic.replan decision is separated from the
// scale action by the kill-check-only PhaseElastic barrier; a kill
// there resumes from the preceding PhaseSegment snapshot, re-derives
// the identical decision, and executes the scale exactly once.

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// MarketSpot marks a cluster provisioned on the spot market (the empty
// string is on-demand).
const MarketSpot = "spot"

// The simulated cost of one price-driven cluster rebuild (checkpoint +
// re-launch, cheaper than a failure recovery because nothing was lost),
// and the minimum relative cost gain that justifies paying it.
const (
	scaleOverheadSec = 15.0
	minGainFrac      = 0.05
)

func (c *Controller) spotStrategy() pricing.Strategy {
	if c.SpotStrategy == "" {
		return pricing.Balanced
	}
	return c.SpotStrategy
}

// marketChoice records how the planning catalog priced one instance
// type: on the spot market under a bid, or on-demand.
type marketChoice struct {
	spot bool
	bid  float64
}

// planningCatalog builds the catalog a plan search should run against.
// Static controllers plan on the provider's catalog unchanged. Elastic
// controllers plan on an effective clone where every type the bidding
// strategy takes to the spot market carries its current spot price, so
// Algorithm 1's cheapest-feasible choice weighs spot discounts exactly
// like any other price — and the returned choices say how to launch
// whatever type the search picks.
func (c *Controller) planningCatalog() (*cloud.Catalog, map[string]marketChoice, error) {
	base := c.provider.Catalog()
	m := c.provider.Market()
	if m == nil {
		return base, nil, nil
	}
	now := c.provider.Now()
	strat := c.spotStrategy()
	types := base.Types()
	eff := make([]cloud.InstanceType, 0, len(types))
	choices := make(map[string]marketChoice, len(types))
	for _, t := range types {
		if spotPrice, ok := m.SpotPrice(t.Name, now); ok {
			if useSpot, bid := strat.Decide(t.PricePerHour, spotPrice); useSpot {
				choices[t.Name] = marketChoice{spot: true, bid: bid}
				t.PricePerHour = spotPrice
			}
		}
		eff = append(eff, t)
	}
	cat, err := cloud.NewCatalog(eff...)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: building effective spot catalog: %w", err)
	}
	return cat, choices, nil
}

// adoptChoice applies a search result's market choice to the run state:
// spot market and bid if the chosen type was spot-priced, on-demand
// otherwise.
func (st *runState) adoptChoice(ch marketChoice) {
	if ch.spot {
		st.Market, st.BidPerHour = MarketSpot, ch.bid
		return
	}
	st.Market, st.BidPerHour = "", 0
}

// repriceCurrent refreshes the run state's plan price to the current
// market: a spot cluster's effective hourly price follows the trace, so
// cost accounting and the keep-vs-rebuild comparison both use the price
// actually being paid now.
func (c *Controller) repriceCurrent(st *runState) {
	if st.Market != MarketSpot {
		return
	}
	if p, ok := c.provider.Market().SpotPrice(st.Plan.Type.Name, c.provider.Now()); ok {
		st.Plan.Type.PricePerHour = p
	}
}

// elasticSegIters bounds the next training segment so it ends at the
// next price change-point: the segment loop then re-enters elasticStep
// with fresh prices. Returns remaining unchanged when no change is
// ahead or the controller is static.
func (c *Controller) elasticSegIters(st *runState, remaining int) int {
	m := c.provider.Market()
	if m == nil || remaining <= 0 {
		return remaining
	}
	next, ok := m.NextChange(c.provider.Now())
	if !ok {
		return remaining
	}
	perIter := st.Plan.PredTime / float64(st.Plan.Iterations)
	if perIter <= 0 {
		return remaining
	}
	n := int((next - c.provider.Now()) / perIter)
	if n < 1 {
		n = 1 // always make progress, even through a dense change cluster
	}
	if n < remaining {
		return n
	}
	return remaining
}

// elasticStep is the continuous optimizer's tick, run at the top of
// every training segment. If no price changed since the last
// evaluation, it does nothing — on a flat trace the controller is
// bit-identical to the static one. Otherwise it re-runs the plan search
// against the residual deadline budget and rebuilds the cluster when a
// candidate plan is enough cheaper (and still inside the budget with
// headroom) to pay for the rebuild.
func (c *Controller) elasticStep(st *runState) error {
	m := c.provider.Market()
	if m == nil || st.Done >= st.TotalIters {
		return nil
	}
	now := c.provider.Now()
	if !m.HasChangeIn(st.LastEvalSec, now) {
		return nil
	}
	st.LastEvalSec = now
	c.repriceCurrent(st)
	remaining := st.TotalIters - st.Done
	budget := st.goal.TimeSec - st.Elapsed
	if budget <= 0 {
		return nil // past the deadline already; nothing to optimize for
	}
	res, choices, err := c.residualSearch(st, remaining, budget)
	if err != nil || !res.Plan.Feasible {
		return nil // planning trouble never kills a running job
	}
	p := res.Plan
	candSpot := choices[p.Type.Name].spot
	sameShape := p.Type.Name == st.Plan.Type.Name && p.Workers == st.Plan.Workers && p.PS == st.Plan.PS
	if sameShape && candSpot == (st.Market == MarketSpot) {
		return nil // already running the best plan on the best market
	}
	// Keep-vs-rebuild: compare the cost of finishing on the current
	// cluster at today's price against the candidate plus the rebuild
	// overhead, and require the candidate to both clear the minimum gain
	// and still fit the remaining budget with the planner's headroom.
	overhead := scaleOverheadSec
	curSec := st.Plan.PredTime * float64(remaining) / float64(st.Plan.Iterations)
	curCost := plan.Cost(st.Plan.Type, st.Plan.Workers, st.Plan.PS, curSec)
	candSec := p.PredTime * float64(remaining) / float64(p.Iterations)
	candCost := plan.Cost(p.Type, p.Workers, p.PS, candSec+overhead)
	if candCost >= curCost*(1-minGainFrac) {
		return nil
	}
	if candSec+overhead > budget*(1-plan.Headroom) {
		return nil
	}
	ch := choices[p.Type.Name]
	market := ""
	if ch.spot {
		market = MarketSpot
	}
	c.jbind(st.job).Emit(journal.ElasticReplan,
		journal.Ffloat("budget_sec", budget),
		journal.F("type", p.Type.Name),
		journal.Fint("workers", p.Workers),
		journal.Fint("ps", p.PS),
		journal.F("market", market),
		journal.Ffloat("price_per_hour", p.Type.PricePerHour),
		journal.Ffloat("cur_cost_usd", curCost),
		journal.Ffloat("new_cost_usd", candCost))
	// Kill-check-only barrier between decision and action: see the
	// PhaseElastic doc comment for why a kill here cannot double-launch.
	if err := c.barrier(st, PhaseElastic); err != nil {
		return err
	}
	return c.elasticScale(st, p, ch, overhead)
}

// elasticScale executes an elastic re-plan: tear the old cluster down,
// adopt the new plan and market, charge the rebuild overhead, and
// provision. Failure to provision fails the job the same way a
// post-recovery re-provision would.
func (c *Controller) elasticScale(st *runState, p plan.Plan, ch marketChoice, overhead float64) error {
	job := st.job
	from := fmt.Sprintf("%dx %s + %d PS", st.Plan.Workers, st.Plan.Type.Name, st.Plan.PS)
	c.teardown(job)
	st.Plan = p
	st.adoptChoice(ch)
	c.mu.Lock()
	job.Plan = p
	c.mu.Unlock()
	c.chargeTime(st, overhead)
	st.BurnRec += overhead
	if err := c.provision(st); err != nil {
		return fmt.Errorf("cluster: re-provisioning after elastic re-plan: %w", err)
	}
	st.Scales++
	c.mu.Lock()
	job.ElasticScales = st.Scales
	c.mu.Unlock()
	c.jbind(job).Emit(journal.ElasticScale,
		journal.F("from", from),
		journal.F("type", st.Plan.Type.Name),
		journal.Fint("workers", st.Plan.Workers),
		journal.Fint("ps", st.Plan.PS),
		journal.F("market", st.Market),
		journal.Ffloat("overhead_sec", overhead),
		journal.Fint("scales", st.Scales))
	return nil
}
