package ddnnsim

// Property tests: conservation laws that must hold for any workload and
// any cluster shape, independent of contention.

import (
	"math"
	"math/rand"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

// randomCluster draws a small random cluster.
func randomCluster(rng *rand.Rand) cloud.ClusterSpec {
	types := []cloud.InstanceType{m4, m1}
	nwk := rng.Intn(6) + 1
	nps := rng.Intn(2) + 1
	spec := cloud.ClusterSpec{}
	for i := 0; i < nwk; i++ {
		spec.Workers = append(spec.Workers, types[rng.Intn(len(types))])
	}
	for i := 0; i < nps; i++ {
		spec.PS = append(spec.PS, types[rng.Intn(len(types))])
	}
	return spec
}

// TestPropertyComputeWorkConservation: total worker-CPU service delivered
// equals the total compute work of the iteration budget (within the ±2%
// compute noise).
func TestPropertyComputeWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	workloads := model.Workloads()
	for trial := 0; trial < 15; trial++ {
		w := workloads[rng.Intn(len(workloads))]
		spec := randomCluster(rng)
		iters := rng.Intn(60) + 20
		res, err := Run(w, spec, Options{Iterations: iters, Seed: int64(trial), LossEvery: iters})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, w.Name, err)
		}
		// Work executed per iteration is witer (BSP splits it across
		// workers; ASP puts it whole on one worker).
		wantWork := w.WiterGFLOPs * float64(iters)
		gotWork := 0.0
		for j, u := range res.WorkerCPUUtil {
			gotWork += u * spec.Workers[j].GFLOPS * res.TrainingTime
		}
		if rel := math.Abs(gotWork-wantWork) / wantWork; rel > 0.05 {
			t.Errorf("trial %d (%s, %dwk/%dps): compute work %.1f, want %.1f (%.1f%% off)",
				trial, w.Name, spec.NumWorkers(), spec.NumPS(), gotWork, wantWork, rel*100)
		}
	}
}

// TestPropertyTrafficConservation: total bytes through the PS NICs equal
// 2 x gparam x iterations (push + pull), for any cluster shape.
func TestPropertyTrafficConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	workloads := model.Workloads()
	for trial := 0; trial < 15; trial++ {
		w := workloads[rng.Intn(len(workloads))]
		spec := randomCluster(rng)
		iters := rng.Intn(60) + 20
		res, err := Run(w, spec, Options{Iterations: iters, Seed: int64(trial), LossEvery: iters})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var wantMB float64
		if w.Sync == model.BSP {
			// Every worker pushes and pulls the full parameter set each
			// round.
			wantMB = 2 * w.GparamMB * float64(iters) * float64(spec.NumWorkers())
		} else {
			wantMB = 2 * w.GparamMB * float64(iters)
		}
		gotMB := 0.0
		for k, u := range res.PSNICUtil {
			gotMB += u * spec.PS[k].NetMBps * res.TrainingTime
		}
		if rel := math.Abs(gotMB-wantMB) / wantMB; rel > 0.02 {
			t.Errorf("trial %d (%s): PS traffic %.1f MB, want %.1f MB", trial, w.Name, gotMB, wantMB)
		}
	}
}

// TestPropertyIterationAccounting: completed iterations always equal the
// budget, and per-worker counts sum to it (ASP) or each equal it (BSP).
func TestPropertyIterationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	workloads := model.Workloads()
	for trial := 0; trial < 15; trial++ {
		w := workloads[rng.Intn(len(workloads))]
		spec := randomCluster(rng)
		iters := rng.Intn(50) + 10
		res, err := Run(w, spec, Options{Iterations: iters, Seed: int64(trial), LossEvery: iters})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Iterations != iters {
			t.Fatalf("trial %d: completed %d, want %d", trial, res.Iterations, iters)
		}
		if w.Sync == model.ASP {
			sum := 0
			for _, c := range res.PerWorkerIterations {
				sum += c
			}
			if sum != iters {
				t.Errorf("trial %d: ASP per-worker sum %d != %d", trial, sum, iters)
			}
		} else {
			for j, c := range res.PerWorkerIterations {
				if c != iters {
					t.Errorf("trial %d: BSP worker %d ran %d rounds, want %d", trial, j, c, iters)
				}
			}
		}
	}
}

// TestPropertyUtilizationBounded: all utilizations stay within [0, 1].
func TestPropertyUtilizationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	workloads := model.Workloads()
	for trial := 0; trial < 10; trial++ {
		w := workloads[rng.Intn(len(workloads))]
		spec := randomCluster(rng)
		res, err := Run(w, spec, Options{Iterations: 30, Seed: int64(trial), LossEvery: 30})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		check := func(name string, us []float64) {
			for i, u := range us {
				if u < 0 || u > 1+1e-9 {
					t.Errorf("trial %d: %s[%d] = %v out of [0,1]", trial, name, i, u)
				}
			}
		}
		check("worker", res.WorkerCPUUtil)
		check("psCPU", res.PSCPUUtil)
		check("psNIC", res.PSNICUtil)
	}
}

// TestPropertyMorePSNeverSlower: adding PS capacity can only help (or be
// neutral) for a fixed workload and worker set.
func TestPropertyMorePSNeverSlower(t *testing.T) {
	for _, name := range []string{"mnist DNN", "VGG-19"} {
		w, err := model.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		iters := 60
		prev := math.Inf(1)
		for _, nps := range []int{1, 2, 4} {
			res, err := Run(w, cloud.Homogeneous(m4, 6, nps), Options{Iterations: iters, LossEvery: iters})
			if err != nil {
				t.Fatal(err)
			}
			if res.TrainingTime > prev*1.02 {
				t.Errorf("%s: %d PS slower than fewer (%.1f > %.1f)", name, nps, res.TrainingTime, prev)
			}
			prev = res.TrainingTime
		}
	}
}
