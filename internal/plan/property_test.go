package plan

// Property tests over the provisioner: invariants that must hold for any
// workload, goal, and catalog.

import (
	"math"
	"math/rand"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/perf"
)

func TestPropertyProvisionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m4, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	workloads := model.Workloads()
	checked := 0
	for trial := 0; trial < 120; trial++ {
		w := workloads[rng.Intn(len(workloads))]
		goal := Goal{
			TimeSec:    math.Exp(rng.Float64()*4+6.2) + 500,     // ~1000..30000 s
			LossTarget: w.Loss.Beta1 + 0.05 + rng.Float64()*0.6, // above the asymptote
		}
		p := perf.SyntheticProfile(w, m4)
		pl, err := Provision(Request{Profile: p, Goal: goal})
		if err != nil {
			continue // genuinely infeasible corner; fine
		}
		checked++
		// Structural invariants.
		if pl.Workers < 1 || pl.PS < 1 || pl.Workers < pl.PS {
			t.Fatalf("trial %d: malformed plan %+v", trial, pl)
		}
		if pl.Workers > MaxWorkers {
			t.Fatalf("trial %d: quota violated: %d workers", trial, pl.Workers)
		}
		if pl.Iterations < 1 {
			t.Fatalf("trial %d: no iterations", trial)
		}
		// The iteration budget actually reaches the loss target.
		if got := w.Loss.Loss(w.Sync, float64(pl.Iterations), pl.Workers); got > goal.LossTarget*1.001 {
			t.Fatalf("trial %d: budget %d reaches loss %.3f > target %.3f",
				trial, pl.Iterations, got, goal.LossTarget)
		}
		// Cost formula (Eq. 8) consistency.
		wantCost := pl.Type.PricePerHour * float64(pl.Workers+pl.PS) * pl.PredTime / 3600
		if math.Abs(pl.Cost-wantCost) > 1e-9*(1+wantCost) {
			t.Fatalf("trial %d: cost %.6f != Eq.8 %.6f", trial, pl.Cost, wantCost)
		}
		// Feasibility flag consistency with the headroom-adjusted goal.
		if pl.Feasible && pl.PredTime > goal.TimeSec*(1-Headroom)*1.0001 {
			t.Fatalf("trial %d: feasible plan predicted %.1f > reserve-adjusted goal %.1f",
				trial, pl.PredTime, goal.TimeSec*(1-Headroom))
		}
		// Prediction consistency: recomputing with the same predictor
		// reproduces PredTime.
		again, err := perf.Cynthia{}.TrainingTime(p, cloud.Homogeneous(pl.Type, pl.Workers, pl.PS), pl.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(again-pl.PredTime) > 1e-9*(1+again) {
			t.Fatalf("trial %d: PredTime %.3f not reproducible (%.3f)", trial, pl.PredTime, again)
		}
	}
	if checked < 60 {
		t.Fatalf("only %d/120 trials produced plans; goals too hard", checked)
	}
}

func TestPropertyLooserGoalNeverNeedsMoreDockers(t *testing.T) {
	// For a fixed loss target, relaxing the deadline can only keep or
	// shrink the cluster (Algorithm 1 breaks at the first feasible
	// worker count, so worker counts are monotone in deadline tightness
	// — the paper's Fig. 11). Note the COST is not monotone: a smaller
	// cluster runs longer and amortizes the PS worse, which is visible
	// in the paper's Fig. 11(b) as well.
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	for _, name := range []string{"cifar10 DNN", "VGG-19"} {
		w, err := model.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := perf.SyntheticProfile(w, m4)
		prev := math.MaxInt32
		prevGoal := 0.0
		for _, tg := range []float64{3600, 5400, 7200, 10800, 14400} {
			pl, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: tg, LossTarget: 0.8}})
			if err != nil || !pl.Feasible {
				continue
			}
			if pl.Workers+pl.PS > prev {
				t.Errorf("%s: goal %.0fs uses %d dockers > %d at tighter %.0fs",
					name, tg, pl.Workers+pl.PS, prev, prevGoal)
			}
			prev, prevGoal = pl.Workers+pl.PS, tg
		}
	}
}

func TestPropertyBoundsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	catalog := cloud.DefaultCatalog()
	workloads := model.Workloads()
	for trial := 0; trial < 200; trial++ {
		w := workloads[rng.Intn(len(workloads))]
		types := catalog.Types()
		tt := types[rng.Intn(len(types))]
		goal := Goal{
			TimeSec:    rng.Float64()*20000 + 600,
			LossTarget: w.Loss.Beta1 + 0.05 + rng.Float64()*0.5,
		}
		m4, _ := catalog.Lookup(cloud.M4XLarge)
		p := perf.SyntheticProfile(w, m4)
		b, err := ComputeBounds(p, tt, goal)
		if err != nil {
			continue
		}
		if b.LowerWorkers < 1 || b.UpperWorkers < b.LowerWorkers || b.PS < 1 {
			t.Fatalf("trial %d: bad bounds %+v", trial, b)
		}
		if b.Ratio <= 0 || math.IsNaN(b.Ratio) {
			t.Fatalf("trial %d: bad ratio %v", trial, b.Ratio)
		}
		if b.Iterations < 1 {
			t.Fatalf("trial %d: bad iterations %d", trial, b.Iterations)
		}
	}
}

func TestCandidatesCoverAndOrder(t *testing.T) {
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	w, _ := model.WorkloadByName("cifar10 DNN")
	p := perf.SyntheticProfile(w, m4)
	req := Request{Profile: p, Goal: Goal{TimeSec: 5400, LossTarget: 0.8}}
	cands, err := Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 8 {
		t.Fatalf("only %d candidates", len(cands))
	}
	// Ordering: feasible first, then by cost ascending within each group.
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
	// The chosen plan appears among the candidates.
	chosen, err := Provision(req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		if c.Type.Name == chosen.Type.Name && c.Workers == chosen.Workers && c.PS == chosen.PS {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("chosen plan %v not among candidates", chosen)
	}
}

func TestCandidatesValidation(t *testing.T) {
	if _, err := Candidates(Request{}); err == nil {
		t.Error("nil profile accepted")
	}
}
