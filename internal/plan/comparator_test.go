package plan_test

// Comparator tests live in the external test package: they exercise plan
// against internal/baseline, which itself imports plan for the
// Provisioner interface.

import (
	"context"
	"testing"

	"cynthia/internal/baseline"
	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// Modified Optimus (the paper's comparator): same algorithm, Optimus
// predictor. For overlapped BSP it over-estimates iteration time and thus
// over-provisions, costing more than Cynthia.
func TestOptimusOverProvisionsBSP(t *testing.T) {
	w, _ := model.WorkloadByName("cifar10 DNN")
	m4, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	p := perf.SyntheticProfile(w, m4)
	opt, err := baseline.FitFromSimulator(w, m4)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := cloud.NewCatalog(m4)
	if err != nil {
		t.Fatal(err)
	}
	goal := plan.Goal{TimeSec: 5400, LossTarget: 0.8}
	cyn, err := plan.Provision(plan.Request{Profile: p, Goal: goal, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	om, err := plan.Provision(plan.Request{Profile: p, Goal: goal, Catalog: cat, Predictor: opt})
	if err != nil {
		t.Fatal(err)
	}
	if om.Workers < cyn.Workers {
		t.Errorf("Optimus workers %d < Cynthia %d; expected over-provisioning", om.Workers, cyn.Workers)
	}
	if cyn.Cost > om.Cost {
		t.Errorf("Cynthia cost $%.3f should not exceed Optimus $%.3f", cyn.Cost, om.Cost)
	}
}

// Both provisioners satisfy the interface and answer the same request; the
// Cynthia engine's bounded search never costs more than the greedy
// marginal-gain climb when both meet the goal.
func TestEngineNoWorseThanMarginalGain(t *testing.T) {
	w, _ := model.WorkloadByName("cifar10 DNN")
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	p := perf.SyntheticProfile(w, m4)
	req := plan.Request{Profile: p, Goal: plan.Goal{TimeSec: 5400, LossTarget: 0.8}}
	ctx := context.Background()
	var plans []plan.Plan
	for _, prov := range []plan.Provisioner{plan.DefaultEngine, baseline.MarginalGain{}} {
		res, err := prov.Search(ctx, req)
		if err != nil {
			t.Fatalf("%T: %v", prov, err)
		}
		if pl := res.Plan; pl.Workers < 1 || pl.PS < 1 || pl.Workers < pl.PS {
			t.Errorf("%T: malformed plan %v", prov, pl)
		}
		plans = append(plans, res.Plan)
	}
	if cyn, mg := plans[0], plans[1]; cyn.Feasible && mg.Feasible && cyn.Cost > mg.Cost+1e-9 {
		t.Errorf("engine cost $%.3f exceeds marginal-gain $%.3f", cyn.Cost, mg.Cost)
	}
}
