// Package simtest is the deterministic property/metamorphic test harness
// for the provisioning stack. It provides three things:
//
//   - Seeded random generators (gen.go) for instance catalogs, workloads,
//     provisioning requests, training clusters, and cloud.FaultPlans.
//     Every generator draws only from the *rand.Rand it is handed, so a
//     fixed seed reproduces the exact case — failures are replayable and
//     the suite is deterministic under -race and -shuffle.
//
//   - Invariant checkers (invariants.go) that audit any search result or
//     simulation run against the guarantees the paper states: the chosen
//     plan is the cheapest first-feasible candidate Algorithm 1
//     enumerates, the Theorem 4.1 bounds contain the chosen configuration,
//     the Eq. 6-7 utilizations stay in (0, 1], BSP's overlapped iteration
//     time max(tcomp, tcomm) never exceeds the sequential tcomp + tcomm,
//     and every reported cost matches Eq. 8.
//
//   - A golden end-to-end scenario corpus (scenario.go and
//     testdata/scenarios/*.json) replaying full planner -> controller ->
//     ddnnsim runs, including fault schedules, bit-for-bit. Regenerate
//     expectations with `go test ./internal/simtest -run Golden -update`.
//
// The package holds no test state of its own; the _test files in this
// directory wire the generators and checkers together, and other packages
// may import simtest for the same building blocks.
package simtest

import (
	"fmt"
	"math"
	"math/rand"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// NewRand returns the deterministic random source every generator in this
// package consumes. Tests derive one per case from a fixed base seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// uniform draws from [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// GenInstanceType draws one plausible catalog entry. The ranges bracket
// the paper's four EC2 families (1.58-3.0 GFLOPS per docker, 62-110 MB/s,
// $0.20-0.35/h) with room on both sides, so generated catalogs exercise
// the planner beyond the calibrated defaults.
func GenInstanceType(rng *rand.Rand, name string) cloud.InstanceType {
	return cloud.InstanceType{
		Name:         name,
		CPUModel:     "generated",
		GFLOPS:       uniform(rng, 1.0, 6.0),
		NetMBps:      uniform(rng, 40, 220),
		PricePerHour: uniform(rng, 0.08, 0.60),
		VCPUs:        4,
		MemoryGiB:    16,
	}
}

// GenCatalog draws a catalog of 2-6 generated instance types.
func GenCatalog(rng *rand.Rand) *cloud.Catalog {
	n := 2 + rng.Intn(5)
	types := make([]cloud.InstanceType, n)
	for i := range types {
		types[i] = GenInstanceType(rng, fmt.Sprintf("gen%d.xlarge", i))
	}
	c, err := cloud.NewCatalog(types...)
	if err != nil {
		panic(err) // generated attributes are positive by construction
	}
	return c
}

// GenWorkload draws a synthetic DDNN workload: per-iteration work, model
// size, PS overhead, sync mode, and Eq. 1 loss coefficients, in ranges
// bracketing the paper's Table 1 (mnist DNN's 0.8 GFLOPs/iter up to
// VGG-19's ~80 MB of parameters).
func GenWorkload(rng *rand.Rand) *model.Workload {
	sync := model.BSP
	if rng.Intn(2) == 1 {
		sync = model.ASP
	}
	return &model.Workload{
		Name:        fmt.Sprintf("gen-%s", sync),
		Batch:       128,
		Iterations:  1000,
		Sync:        sync,
		Dataset:     "synthetic",
		WiterGFLOPs: uniform(rng, 0.5, 30),
		GparamMB:    uniform(rng, 1, 60),
		PSCPUPerMB:  uniform(rng, 0.005, 0.05),
		Loss: model.LossParams{
			Beta0: uniform(rng, 30, 1200),
			Beta1: uniform(rng, 0.05, 0.5),
		},
	}
}

// GenGoal draws a training goal for the workload: a loss target safely
// above the Eq. 1 asymptote and a deadline spanning comfortably loose to
// outright impossible, so the corpus exercises both the feasible search
// and the best-effort fallback.
func GenGoal(rng *rand.Rand, w *model.Workload) plan.Goal {
	return plan.Goal{
		// ~600 s .. ~45000 s, log-uniform.
		TimeSec:    600 * math.Exp(uniform(rng, 0, 4.3)),
		LossTarget: w.Loss.Beta1 + uniform(rng, 0.03, 0.6),
	}
}

// GenRequest draws a full provisioning request: generated workload,
// catalog, and goal. The profile is the noise-free synthetic profile
// against the catalog's first type, mirroring how the controller profiles
// on a fixed baseline.
func GenRequest(rng *rand.Rand) plan.Request {
	catalog := GenCatalog(rng)
	w := GenWorkload(rng)
	base := catalog.Types()[0]
	return plan.Request{
		Profile: perf.SyntheticProfile(w, base),
		Goal:    GenGoal(rng, w),
		Catalog: catalog,
	}
}

// GenCluster draws a training cluster over the catalog: 1-12 workers and
// 1-3 PS dockers, homogeneous or (for BSP straggler coverage) mixing two
// types.
func GenCluster(rng *rand.Rand, catalog *cloud.Catalog) cloud.ClusterSpec {
	types := catalog.Types()
	nwk := 1 + rng.Intn(12)
	nps := 1 + rng.Intn(3)
	t := types[rng.Intn(len(types))]
	if len(types) > 1 && rng.Intn(3) == 0 {
		slow := types[rng.Intn(len(types))]
		return cloud.Heterogeneous(t, slow, nwk, nps)
	}
	return cloud.Homogeneous(t, nwk, nps)
}

// GenFaultPlan draws a deterministic fault-injection plan: transient
// launch failures, launch delays, and either Bernoulli or targeted spot
// preemptions, all derived from the plan's own seed.
func GenFaultPlan(rng *rand.Rand) cloud.FaultPlan {
	fp := cloud.FaultPlan{
		Seed:                    rng.Int63n(1 << 30),
		MaxConsecutiveTransient: 1 + rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		fp.TransientRate = uniform(rng, 0.1, 0.8)
	}
	if rng.Intn(2) == 0 {
		fp.LaunchDelayMaxSec = uniform(rng, 1, 120)
	}
	switch rng.Intn(3) {
	case 0:
		fp.PreemptRate = uniform(rng, 0.1, 0.9)
		fp.PreemptMinSec = uniform(rng, 10, 500)
		fp.PreemptMaxSec = fp.PreemptMinSec + uniform(rng, 0, 2000)
	case 1:
		fp.PreemptAtSec = uniform(rng, 10, 2000)
		fp.PreemptNth = rng.Intn(4)
	}
	return fp
}
