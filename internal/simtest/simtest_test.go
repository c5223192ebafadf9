package simtest

import (
	"reflect"
	"testing"

	"cynthia/internal/model"
)

// TestGeneratorsDeterministic pins the contract everything else here
// relies on: the same seed reproduces the same case exactly.
func TestGeneratorsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, b := GenRequest(NewRand(seed)), GenRequest(NewRand(seed))
		if !reflect.DeepEqual(a.Profile, b.Profile) || a.Goal != b.Goal ||
			!reflect.DeepEqual(a.Catalog.Types(), b.Catalog.Types()) {
			t.Fatalf("seed %d: GenRequest not deterministic", seed)
		}
		fa, fb := GenFaultPlan(NewRand(seed)), GenFaultPlan(NewRand(seed))
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("seed %d: GenFaultPlan not deterministic", seed)
		}
	}
}

// TestGeneratedValuesInRange spot-checks that generated cases stay inside
// the documented ranges — the invariant suites assume positive, finite
// attributes throughout.
func TestGeneratedValuesInRange(t *testing.T) {
	sawBSP, sawASP := false, false
	for seed := int64(0); seed < 50; seed++ {
		rng := NewRand(seed)
		catalog := GenCatalog(rng)
		types := catalog.Types()
		if len(types) < 2 || len(types) > 6 {
			t.Fatalf("seed %d: catalog size %d outside [2,6]", seed, len(types))
		}
		for _, ty := range types {
			if ty.GFLOPS <= 0 || ty.NetMBps <= 0 || ty.PricePerHour <= 0 {
				t.Fatalf("seed %d: non-positive attribute in %+v", seed, ty)
			}
		}
		w := GenWorkload(rng)
		if w.Sync == model.BSP {
			sawBSP = true
		} else {
			sawASP = true
		}
		if w.WiterGFLOPs <= 0 || w.GparamMB <= 0 || w.Loss.Beta0 <= 0 || w.Loss.Beta1 <= 0 {
			t.Fatalf("seed %d: non-positive workload attribute %+v", seed, w)
		}
		goal := GenGoal(rng, w)
		if goal.TimeSec < 600 || goal.LossTarget <= w.Loss.Beta1 {
			t.Fatalf("seed %d: degenerate goal %+v", seed, goal)
		}
		spec := GenCluster(rng, catalog)
		if spec.NumWorkers() < 1 || spec.NumPS() < 1 {
			t.Fatalf("seed %d: empty cluster", seed)
		}
		fp := GenFaultPlan(rng)
		if fp.PreemptMaxSec < fp.PreemptMinSec {
			t.Fatalf("seed %d: preemption window inverted %+v", seed, fp)
		}
	}
	if !sawBSP || !sawASP {
		t.Error("workload generator never produced both sync modes")
	}
}
