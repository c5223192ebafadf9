package flow_test

// Differential allocator tests over whole simulations: the incremental
// max-min allocator must be indistinguishable — bit for bit, via
// reflect.DeepEqual over full ddnnsim Results and their traces — from the
// full-recompute oracle across generated workloads and clusters, including
// fault-interrupted runs. A verify pass re-checks every single recompute
// inside the engine. ddnnsim builds its engines internally, so the tests
// switch allocators through the NewEngine seam in export_test.go.

import (
	"reflect"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/flow"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/simtest"
)

const diffSeedBase = 0x5eed0d1f

// runWith runs one simulation with every engine it builds using step (nil:
// the production incremental allocator).
func runWith(t *testing.T, step func(*flow.Engine), w *model.Workload, spec cloud.ClusterSpec, opt ddnnsim.Options) *ddnnsim.Result {
	t.Helper()
	defer flow.UseAllocStepInNewEngines(step)()
	res, err := ddnnsim.Run(w, spec, opt)
	if err != nil {
		t.Fatalf("seed %d: %v", opt.Seed, err)
	}
	return res
}

// tracedRun runs one simulation like runWith and also returns its trace.
// Spans are recorded as their flows complete, and the trace keeps the
// record order of spans that start at one instant, so it shows the
// delivery order inside a completion batch, which a Result does not.
func tracedRun(t *testing.T, step func(*flow.Engine), w *model.Workload, spec cloud.ClusterSpec, opt ddnnsim.Options) (*ddnnsim.Result, []obs.TraceEvent) {
	t.Helper()
	opt.Trace = &obs.Tracer{}
	res := runWith(t, step, w, spec, opt)
	return res, opt.Trace.Events()
}

// TestDifferentialAllocatorOnGeneratedSims runs each generated simulation
// under the reference and the incremental allocator and requires deeply
// identical Results and traces: same training time, same loss curve, same
// utilizations, to the last float, and the same spans in the same order.
// A worker's transfers to its PS shards start at one instant, and so do
// all pulls after a BSP barrier, so flows finish at exactly the same
// instants: several flows of one record, and the aggregation flows of
// different shards, each shard CPU its own component. Such a batch pops
// several records, and the traces diverge unless both allocators deliver
// it in (doneAt, seq) order.
func TestDifferentialAllocatorOnGeneratedSims(t *testing.T) {
	const iters = 40
	for seed := int64(0); seed < 15; seed++ {
		rng := simtest.NewRand(diffSeedBase + seed)
		catalog := simtest.GenCatalog(rng)
		w := simtest.GenWorkload(rng).WithIterations(iters)
		spec := simtest.GenCluster(rng, catalog)
		opt := ddnnsim.Options{Seed: seed, CheckpointEvery: 7, TraceBin: 0.5}

		ref, refTrace := tracedRun(t, flow.ReferenceStep, w, spec, opt)
		inc, incTrace := tracedRun(t, nil, w, spec, opt)
		if !reflect.DeepEqual(ref, inc) {
			t.Errorf("seed %d: incremental result diverged from reference\nreference:   %+v\nincremental: %+v", seed, ref, inc)
		}
		if !reflect.DeepEqual(refTrace, incTrace) {
			t.Errorf("seed %d: incremental trace diverged from reference", seed)
		}

		// Interrupted segment: the allocators must also agree mid-run, at
		// an instant that is not a flow-set quiescence point.
		opt.Faults = []ddnnsim.Fault{{AtSec: ref.TrainingTime / 3, Role: "worker", Index: 0}}
		rref := runWith(t, flow.ReferenceStep, w, spec, opt)
		if rinc := runWith(t, nil, w, spec, opt); !reflect.DeepEqual(rref, rinc) {
			t.Errorf("seed %d: interrupted incremental result diverged from reference", seed)
		}
	}
}

// TestVerifyModeOnGeneratedSims runs a subset of generated simulations
// under the verify step, which cross-checks incremental against reference
// inside the engine on every recompute and panics on any bitwise rate
// mismatch — catching divergence at the event where it happens rather
// than at the end of the run.
func TestVerifyModeOnGeneratedSims(t *testing.T) {
	if testing.Short() {
		t.Skip("verify mode doubles every allocation; skipping in -short")
	}
	const iters = 25
	for seed := int64(0); seed < 6; seed++ {
		rng := simtest.NewRand(diffSeedBase + 100 + seed)
		catalog := simtest.GenCatalog(rng)
		w := simtest.GenWorkload(rng).WithIterations(iters)
		spec := simtest.GenCluster(rng, catalog)
		runWith(t, flow.VerifyStep, w, spec, ddnnsim.Options{Seed: seed})
	}
}
