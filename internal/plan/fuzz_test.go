package plan

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/perf"
)

// FuzzRequestNormalize drives arbitrary numeric shapes through the single
// validation path every search entry point shares. Whatever the input,
// Normalize must not panic. Whenever it accepts a request, the goal must
// be finite and left as given, the defaults must be filled in, Normalize
// must be idempotent, Provision must choose the same plan as Search,
// Search must count exactly what the early break evaluates, and
// Candidates must rank at least those candidates, the chosen plan among
// them.
func FuzzRequestNormalize(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(0.8, 0.192, 0.037, 90.0, 0.15, false, 3600.0, 0.2)
	f.Add(30.0, 80.0, 0.012, 135.0, 0.45, true, 600.0, 0.5)
	f.Add(1.0, 1.0, 0.01, 100.0, 0.1, false, 100.0, 0.2)
	f.Add(inf, -1.0, 0.0, 0.0, 0.0, true, 0.0, 0.0)
	f.Add(0.8, 0.192, 0.037, 90.0, 0.15, false, nan, 0.2)
	f.Add(0.8, 0.192, 0.037, 90.0, 0.15, false, inf, 0.2)
	f.Add(30.0, 80.0, 0.012, 135.0, 0.45, true, 600.0, nan)
	f.Add(30.0, 80.0, 0.012, 135.0, 0.45, true, 600.0, inf)
	f.Fuzz(func(t *testing.T, witer, gparam, pscpu, beta0, beta1 float64, asp bool,
		timeSec, lossTarget float64) {
		sync := model.BSP
		if asp {
			sync = model.ASP
		}
		w := &model.Workload{
			Name: "fuzz", Batch: 128, Iterations: 100, Sync: sync,
			WiterGFLOPs: witer, GparamMB: gparam, PSCPUPerMB: pscpu,
			Loss: model.LossParams{Beta0: beta0, Beta1: beta1},
		}
		req := Request{
			Profile: perf.SyntheticProfile(w, cloud.DefaultCatalog().Types()[0]),
			Goal:    Goal{TimeSec: timeSec, LossTarget: lossTarget},
		}
		nr, err := req.Normalize()
		if err != nil {
			return
		}
		if !positiveFinite(nr.Goal.TimeSec) || !positiveFinite(nr.Goal.LossTarget) {
			t.Fatalf("accepted a non-finite or non-positive goal %+v", nr.Goal)
		}
		if nr.Predictor == nil || nr.Catalog == nil {
			t.Fatalf("accepted request missing defaults: %+v", nr)
		}
		if nr.Goal != req.Goal {
			t.Fatalf("Normalize changed the goal from %+v to %+v", req.Goal, nr.Goal)
		}
		again, err := nr.Normalize()
		if err != nil {
			t.Fatalf("re-normalizing an accepted request failed: %v", err)
		}
		if !reflect.DeepEqual(again, nr) {
			t.Fatalf("Normalize not idempotent:\n first: %+v\n again: %+v", nr, again)
		}
		ctx := context.Background()
		pl, perr := DefaultEngine.Provision(ctx, nr)
		res, serr := DefaultEngine.Search(ctx, nr)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("Provision err=%v, Search err=%v", perr, serr)
		}
		if perr == nil && pl != res.Plan {
			t.Fatalf("Provision chose %+v, Search chose %+v", pl, res.Plan)
		}
		ranked, err := DefaultEngine.Candidates(ctx, nr)
		if err != nil {
			t.Fatalf("Candidates failed on an accepted request: %v", err)
		}
		feasible := 0
		for _, c := range ranked {
			if c.Feasible {
				feasible++
			}
		}
		wantEnum, wantFeasible := earlyBreakCounts(nr.Catalog.Types(), ranked)
		if res.Stats.Enumerated != wantEnum || res.Stats.Feasible != wantFeasible {
			t.Fatalf("Search counted %d (%d feasible), the early break evaluates %d (%d feasible)",
				res.Stats.Enumerated, res.Stats.Feasible, wantEnum, wantFeasible)
		}
		if res.Stats.Enumerated > len(ranked) || res.Stats.Feasible > feasible {
			t.Fatalf("Search counted %d (%d feasible), more than Candidates ranks: %d (%d feasible)",
				res.Stats.Enumerated, res.Stats.Feasible, len(ranked), feasible)
		}
		if serr == nil && (!slices.Contains(ranked, res.Plan) || ranked[0].Feasible != res.Plan.Feasible) {
			t.Fatalf("Search chose %+v; Candidates lack it or lead with feasible=%v", res.Plan, ranked[0].Feasible)
		}
	})
}
