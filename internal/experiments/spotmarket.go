package experiments

import (
	"fmt"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/cluster"
	"cynthia/internal/model"
	"cynthia/internal/plan"
)

func init() {
	register("spotmarket", spotmarket)
}

// marketRegime is one price-trace shape the experiment sweeps; every
// regime keys its generator off the same on-demand price table.
type marketRegime struct {
	name string
	spec pricing.GenSpec
}

// spotRegimes are the price worlds the table compares: a flat deep
// discount, a mean-reverting random walk, a boom-bust step process that
// spikes above on-demand, and a deterministic sawtooth ramp.
func spotRegimes(seed int64) []marketRegime {
	return []marketRegime{
		{"flat-discount", pricing.GenSpec{Kind: "flat", Seed: seed, Base: 0.55, Min: 0.55, Max: 0.55}},
		{"mean-revert", pricing.GenSpec{Kind: "mean-revert", Seed: seed, HorizonSec: 2400, StepSec: 60,
			Base: 0.55, Volatility: 0.15, Min: 0.30, Max: 0.95}},
		{"boom-bust", pricing.GenSpec{Kind: "steps", Seed: seed, HorizonSec: 2400, StepSec: 300,
			Base: 0.60, Min: 0.30, Max: 1.40}},
		{"sawtooth", pricing.GenSpec{Kind: "sawtooth", Seed: seed, HorizonSec: 2400, StepSec: 120,
			Base: 0.60, Min: 0.35, Max: 0.90}},
	}
}

// spotmarket reproduces the economic claim behind the elastic
// controller: across spot-price regimes, bidding and re-planning at
// price change-points never costs more than the static on-demand
// baseline, and usually costs far less. Each row drives one full job
// through the pipeline against a generated price world.
func spotmarket(cfg Config) ([]*Table, error) {
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		return nil, err
	}
	goal := plan.Goal{TimeSec: 3600, LossTarget: 0.2}

	// drive runs one job through a fresh controller; a nil trace set
	// keeps the controller static (the on-demand baseline).
	drive := func(set *pricing.TraceSet, strat pricing.Strategy) (*cluster.Job, error) {
		master, err := cluster.NewMaster()
		if err != nil {
			return nil, err
		}
		now := new(float64)
		provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
		ctl := cluster.NewController(master, provider, nil, "")
		ctl.AdvanceClock = func(dt float64) { *now += dt }
		ctl.SimSeed = cfg.Seed
		ctl.Recovery.Sleep = func(time.Duration) {}
		if set != nil {
			m, err := cloud.NewMarket(provider.Catalog(), set)
			if err != nil {
				return nil, err
			}
			provider.SetMarket(m)
			ctl.SpotStrategy = strat
		}
		job, err := ctl.Submit(w, goal)
		if job == nil {
			return nil, err
		}
		return job, nil
	}

	base, err := drive(nil, "")
	if err != nil {
		return nil, err
	}
	if base.Status != cluster.StatusSucceeded {
		return nil, fmt.Errorf("spotmarket: on-demand baseline %s (%s)", base.Status, base.Err)
	}

	od := make(map[string]float64)
	for _, t := range cloud.DefaultCatalog().Types() {
		od[t.Name] = t.PricePerHour
	}

	tbl := &Table{
		ID:    "Spot market",
		Title: fmt.Sprintf("Elastic spot provisioning vs static on-demand (mnist DNN, Tg=%.0fs)", goal.TimeSec),
		Header: []string{"regime", "strategy", "status", "time (s)", "cost ($)",
			"savings %", "scales", "recoveries"},
	}
	tbl.AddRow("on-demand", "static", string(base.Status),
		fmt.Sprintf("%.0f", base.TrainingTime), fmt.Sprintf("%.3f", base.Cost),
		"+0.0", "0", fmt.Sprintf("%d", base.Recoveries))
	for _, regime := range spotRegimes(cfg.Seed + 77) {
		set, err := pricing.GenerateSet(regime.name, od, regime.spec)
		if err != nil {
			return nil, err
		}
		for _, strat := range []pricing.Strategy{pricing.Aggressive, pricing.Balanced, pricing.Conservative} {
			job, err := drive(set, strat)
			if err != nil {
				return nil, err
			}
			savings := 0.0
			if base.Cost > 0 {
				savings = 100 * (base.Cost - job.Cost) / base.Cost
			}
			tbl.AddRow(regime.name, string(strat), string(job.Status),
				fmt.Sprintf("%.0f", job.TrainingTime), fmt.Sprintf("%.3f", job.Cost),
				fmt.Sprintf("%+.1f", savings), fmt.Sprintf("%d", job.ElasticScales),
				fmt.Sprintf("%d", job.Recoveries))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"savings are relative to the static on-demand baseline run on the same seed",
		"scales counts mid-training cluster rebuilds at price change-points; recoveries counts bid-crossing revocations survived",
		"aggressive bids sit barely above spot, so volatile regimes can revoke them past the recovery budget and fail the job",
		"regimes that spike above on-demand revoke crossed bids; recovery then falls back to on-demand instances")
	return []*Table{tbl}, nil
}
