package plan_test

import (
	"context"
	"reflect"
	"testing"

	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/simtest"
)

// clusterOnly hides perf.Cynthia's homogeneous fast path: embedding the
// Predictor interface promotes only its three methods, so the engine
// prices every candidate through a materialised cloud.Homogeneous spec.
type clusterOnly struct{ perf.Predictor }

// TestFastPathMatchesClusterPath is the planner-level bit-identity
// contract of the homogeneous fast path: over the simtest request corpus,
// a search with perf.Cynthia returns exactly — plan, ranked list and
// stats — what the same search returns when every candidate goes through
// IterTime/TrainingTime on a ClusterSpec.
func TestFastPathMatchesClusterPath(t *testing.T) {
	ctx := context.Background()
	searched := 0
	for seed := int64(0); seed < 200; seed++ {
		req := simtest.GenRequest(simtest.NewRand(seed))
		req.Predictor = perf.Cynthia{}
		fast, ferr := plan.DefaultEngine.Search(ctx, req)
		req.Predictor = clusterOnly{perf.Cynthia{}}
		slow, serr := plan.DefaultEngine.Search(ctx, req)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("seed %d: fast err=%v, cluster err=%v", seed, ferr, serr)
		}
		if ferr != nil {
			continue
		}
		searched++
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("seed %d: fast-path search diverged from the cluster path\n fast:    %+v\n cluster: %+v",
				seed, fast.Plan, slow.Plan)
		}
	}
	if searched < 100 {
		t.Errorf("only %d of 200 corpus requests searched; corpus too degenerate to test", searched)
	}
}
