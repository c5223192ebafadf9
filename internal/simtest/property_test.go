package simtest

import (
	"reflect"
	"testing"

	"cynthia/internal/ddnnsim"
)

// Base seeds for the fixed corpora. Each test derives one rng per case
// from its own base, so adding cases to one test never reshuffles another.
const (
	searchSeedBase = 1000
	simSeedBase    = 2000
	metaSeedBase   = 3000
)

// TestSearchInvariants audits Algorithm 1 on a corpus of generated
// requests: for every fixed seed the serial search must return the
// cheapest first-feasible candidate the Theorem 4.1 enumeration contains,
// with Eq. 6-8 holding on the chosen plan (see CheckSearch).
func TestSearchInvariants(t *testing.T) {
	feasible, infeasible, failed := 0, 0, 0
	for seed := int64(0); seed < 80; seed++ {
		req := GenRequest(NewRand(searchSeedBase + seed))
		res, err := CheckSearch(req)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		switch {
		case res.Stats.Enumerated == 0:
			failed++
		case res.Plan.Feasible:
			feasible++
		default:
			infeasible++
		}
	}
	// The corpus must actually exercise all three outcomes — a generator
	// drift that collapses everything into one bucket would silently gut
	// the properties above.
	if feasible == 0 || infeasible == 0 {
		t.Errorf("degenerate corpus: %d feasible, %d best-effort, %d empty",
			feasible, infeasible, failed)
	}
}

// TestSimInvariants runs generated workloads on generated clusters and
// audits every Result (utilizations, iteration accounting, loss curve),
// then repeats each run — same seed, same options — and requires the two
// Results to be deeply identical: the foundation the golden corpus's
// bit-for-bit replay stands on. A third run injects a mid-run fault and
// audits the interrupted Result's checkpoint bookkeeping.
func TestSimInvariants(t *testing.T) {
	const iters = 40
	for seed := int64(0); seed < 20; seed++ {
		rng := NewRand(simSeedBase + seed)
		catalog := GenCatalog(rng)
		w := GenWorkload(rng).WithIterations(iters)
		spec := GenCluster(rng, catalog)
		opt := ddnnsim.Options{Seed: seed, CheckpointEvery: 7}

		res, err := ddnnsim.Run(w, spec, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckSimResult(opt, iters, res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}

		again, err := ddnnsim.Run(w, spec, opt)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Errorf("seed %d: same seed, different result", seed)
		}

		fopt := opt
		fopt.Faults = []ddnnsim.Fault{{AtSec: res.TrainingTime / 2, Role: "worker", Index: 0}}
		fres, err := ddnnsim.Run(w, spec, fopt)
		if err != nil {
			t.Fatalf("seed %d fault: %v", seed, err)
		}
		if !fres.Interrupted {
			t.Errorf("seed %d: mid-run fault at %.2fs did not interrupt", seed, res.TrainingTime/2)
			continue
		}
		if err := CheckSimResult(fopt, iters, fres); err != nil {
			t.Errorf("seed %d fault: %v", seed, err)
		}
		if fres.TrainingTime > res.TrainingTime {
			t.Errorf("seed %d: interrupted segment (%.2fs) outlasted the full run (%.2fs)",
				seed, fres.TrainingTime, res.TrainingTime)
		}
	}
}

// TestResumeSplicesLossCurve checks the segment-resume contract the
// recovery path depends on: a run resumed with StartIteration=k reports
// global iterations starting after k, so spliced segments reproduce one
// continuous loss trajectory.
func TestResumeSplicesLossCurve(t *testing.T) {
	rng := NewRand(simSeedBase + 999)
	catalog := GenCatalog(rng)
	w := GenWorkload(rng).WithIterations(30)
	spec := GenCluster(rng, catalog)

	opt := ddnnsim.Options{Seed: 7, StartIteration: 12}
	res, err := ddnnsim.Run(w, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSimResult(opt, 30, res); err != nil {
		t.Error(err)
	}
	if len(res.Loss) == 0 || res.Loss[0].Iter != 13 {
		t.Errorf("resumed segment's loss curve starts at %+v, want global iteration 13", res.Loss[:min(1, len(res.Loss))])
	}
	last := res.Loss[len(res.Loss)-1]
	if last.Iter != 12+30 {
		t.Errorf("resumed segment ends at global iteration %d, want %d", last.Iter, 42)
	}
}
