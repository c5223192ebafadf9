package simtest

import (
	"context"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// cheapestFeasible returns the cheapest feasible candidate of a request —
// Candidates is ordered feasible-first then cost-ascending, so it is the
// head of the list when any feasible candidate exists.
func cheapestFeasible(t *testing.T, req plan.Request) (plan.Plan, bool) {
	t.Helper()
	ranked, err := plan.DefaultEngine.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || !ranked[0].Feasible {
		return plan.Plan{}, false
	}
	return ranked[0], true
}

// TestRelaxingDeadlineNeverRaisesCost is the paper's core economic claim
// as a metamorphic property: loosening the deadline Tg can only open the
// search space, so the cheapest feasible candidate never gets more
// expensive. (The property holds for the cheapest candidate, not for
// Provision's first-feasible pick, whose scan order legitimately shifts
// with Tg — see internal/plan/property_test.go.)
func TestRelaxingDeadlineNeverRaisesCost(t *testing.T) {
	engine := plan.DefaultEngine
	ctx := context.Background()
	exercised := 0
	for seed := int64(0); seed < 60; seed++ {
		req := GenRequest(NewRand(metaSeedBase + seed))
		if _, err := engine.Search(ctx, req); err != nil {
			continue // empty search space; relaxing is checked from the next corpus entry
		}
		base, ok := cheapestFeasible(t, req)
		if !ok {
			continue
		}
		exercised++
		prev := base.Cost
		for _, factor := range []float64{1.25, 2, 4} {
			relaxed := req
			relaxed.Goal.TimeSec = req.Goal.TimeSec * factor
			if _, err := engine.Search(ctx, relaxed); err != nil {
				t.Errorf("seed %d: relaxing Tg x%.2f emptied the search space: %v", seed, factor, err)
				break
			}
			cand, ok := cheapestFeasible(t, relaxed)
			if !ok {
				t.Errorf("seed %d: relaxing Tg x%.2f lost feasibility", seed, factor)
				break
			}
			if cand.Cost > prev+relTol*(1+prev) {
				t.Errorf("seed %d: relaxing Tg x%.2f raised cost %.6f -> %.6f",
					seed, factor, prev, cand.Cost)
			}
			prev = cand.Cost
		}
	}
	if exercised < 10 {
		t.Errorf("only %d corpus entries had a feasible plan; corpus too degenerate to test", exercised)
	}
}

// TestMorePSBandwidthNeverSlowsIteration checks Eq. 3-7 monotonicity:
// scaling up the parameter servers' NIC bandwidth (supply in Eq. 7) can
// only relieve the communication bottleneck, so predicted titer is
// non-increasing.
func TestMorePSBandwidthNeverSlowsIteration(t *testing.T) {
	pred := perf.Cynthia{}
	for seed := int64(0); seed < 60; seed++ {
		rng := NewRand(metaSeedBase + 500 + seed)
		catalog := GenCatalog(rng)
		w := GenWorkload(rng)
		profile := perf.SyntheticProfile(w, catalog.Types()[0])
		spec := GenCluster(rng, catalog)

		prev, err := pred.IterTime(profile, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, factor := range []float64{1.5, 2, 4} {
			boosted := cloud.ClusterSpec{
				Workers: append([]cloud.InstanceType(nil), spec.Workers...),
				PS:      append([]cloud.InstanceType(nil), spec.PS...),
			}
			for i := range boosted.PS {
				boosted.PS[i].NetMBps *= factor
			}
			titer, err := pred.IterTime(profile, boosted)
			if err != nil {
				t.Fatalf("seed %d x%.1f: %v", seed, factor, err)
			}
			if titer > prev+relTol*(1+prev) {
				t.Errorf("seed %d: PS bandwidth x%.1f raised titer %.6f -> %.6f",
					seed, factor, prev, titer)
			}
			prev = titer
		}
	}
}

// TestRecoveryNeverBeatsFaultFree drives the same job through the full
// controller pipeline with and without a mid-run preemption: recovery
// redoes lost work and pays restart overhead, so the faulted run can never
// come out cheaper or faster than the fault-free one.
func TestRecoveryNeverBeatsFaultFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		frac float64
	}{
		{"early", 11, 0.25},
		{"midway", 12, 0.5},
		{"late", 13, 0.75},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := &Scenario{
				Name: "base", Workload: "mnist DNN",
				GoalTimeSec: 3600, LossTarget: 0.2, Seed: tc.seed,
			}
			bout, err := RunScenario(base)
			if err != nil {
				t.Fatal(err)
			}
			if bout.Status != "succeeded" {
				t.Fatalf("fault-free baseline %s (%s)", bout.Status, bout.Error)
			}
			faulted := *base
			faulted.Fault = &FaultSpec{Seed: tc.seed + 100, PreemptAtSec: bout.TrainingTime * tc.frac}
			fout, err := RunScenario(&faulted)
			if err != nil {
				t.Fatal(err)
			}
			if fout.Recoveries == 0 {
				t.Fatalf("preemption at %.0f%% triggered no recovery (status %s)", tc.frac*100, fout.Status)
			}
			if fout.CostUSD < bout.CostUSD-relTol*(1+bout.CostUSD) {
				t.Errorf("faulted run cost %.6f beat fault-free %.6f", fout.CostUSD, bout.CostUSD)
			}
			if fout.TrainingTime < bout.TrainingTime-relTol*(1+bout.TrainingTime) {
				t.Errorf("faulted run time %.2fs beat fault-free %.2fs", fout.TrainingTime, bout.TrainingTime)
			}
		})
	}
}
