package baseline

import (
	"context"
	"slices"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

func mgRequest(t *testing.T, name string, goal plan.Goal) plan.Request {
	t.Helper()
	w, err := model.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := cloud.NewCatalog(m4)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Request{Profile: perf.SyntheticProfile(w, m4), Goal: goal, Catalog: cat}
}

func TestMarginalGainMeetsLooseGoal(t *testing.T) {
	req := mgRequest(t, "cifar10 DNN", plan.Goal{TimeSec: 10800, LossTarget: 0.8})
	res, err := MarginalGain{}.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	pl := res.Plan
	if !pl.Feasible {
		t.Fatalf("loose goal infeasible for marginal gain: %v", pl)
	}
	if pl.Workers < pl.PS || pl.Workers > plan.MaxWorkers {
		t.Errorf("malformed plan %v", pl)
	}
}

func TestMarginalGainCandidatesRanked(t *testing.T) {
	req := mgRequest(t, "cifar10 DNN", plan.Goal{TimeSec: 7200, LossTarget: 0.8})
	cands, err := MarginalGain{}.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("only %d candidates", len(cands))
	}
	seenInfeasible := false
	var prevCost float64
	for i, c := range cands {
		if !c.Feasible {
			seenInfeasible = true
		} else if seenInfeasible {
			t.Fatalf("feasible candidate %d after infeasible ones", i)
		}
		if i > 0 && cands[i-1].Feasible == c.Feasible && c.Cost < prevCost-1e-12 {
			t.Fatalf("cost ordering violated at %d", i)
		}
		prevCost = c.Cost
	}
}

// TestMarginalGainPlanAmongRanked: the plan Search chooses is one of the
// configurations its greedy trajectories evaluated, and Search's stats
// count exactly the configurations Candidates ranks.
func TestMarginalGainPlanAmongRanked(t *testing.T) {
	req := mgRequest(t, "cifar10 DNN", plan.Goal{TimeSec: 7200, LossTarget: 0.8})
	res, err := MarginalGain{}.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := MarginalGain{}.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ranked, res.Plan) {
		t.Errorf("chosen plan %v not among %d ranked candidates", res.Plan, len(ranked))
	}
	feasible := 0
	for _, c := range ranked {
		if c.Feasible {
			feasible++
		}
	}
	if res.Stats.Enumerated != len(ranked) || res.Stats.Feasible != feasible {
		t.Errorf("Search counted %d (%d feasible), Candidates ranked %d (%d feasible)",
			res.Stats.Enumerated, res.Stats.Feasible, len(ranked), feasible)
	}
}

func TestMarginalGainCancelled(t *testing.T) {
	req := mgRequest(t, "cifar10 DNN", plan.Goal{TimeSec: 7200, LossTarget: 0.8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (MarginalGain{}).Search(ctx, req); err == nil {
		t.Error("cancelled search succeeded")
	}
	if _, err := (MarginalGain{}).Candidates(ctx, req); err == nil {
		t.Error("cancelled candidates succeeded")
	}
}
