package baseline

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
)

// DefaultSampleSizes are the worker counts Optimus profiles at: small,
// bottleneck-free clusters, which is precisely why the fitted model
// extrapolates poorly into the PS-saturation regime.
var DefaultSampleSizes = []int{1, 2, 3, 4}

// CollectSamples gathers Optimus profiling observations by running short
// training jobs at the given worker counts (one PS) on homogeneous
// clusters of the base type.
func CollectSamples(w *model.Workload, base cloud.InstanceType, sizes []int, itersPerRun int) ([]Sample, error) {
	if len(sizes) == 0 {
		sizes = DefaultSampleSizes
	}
	if itersPerRun <= 0 {
		itersPerRun = 30
	}
	var out []Sample
	for _, n := range sizes {
		iters := itersPerRun
		if w.Sync == model.ASP {
			iters = itersPerRun * n // keep per-worker depth constant
		}
		res, err := ddnnsim.Run(w, cloud.Homogeneous(base, n, 1), ddnnsim.Options{
			Iterations: iters,
			LossEvery:  iters,
		})
		if err != nil {
			return nil, fmt.Errorf("baseline: sampling %s at %d workers: %w", w.Name, n, err)
		}
		titer := res.MeanIterTime
		if w.Sync == model.ASP {
			// Mean per-worker iteration time, the quantity the model fits.
			titer = res.TrainingTime * float64(n) / float64(iters)
		}
		out = append(out, Sample{Workers: n, PS: 1, IterTime: titer})
	}
	return out, nil
}

// FitFromSimulator profiles the workload at DefaultSampleSizes in the
// simulator and fits an Optimus model, the way the experiments use it.
func FitFromSimulator(w *model.Workload, base cloud.InstanceType) (*Optimus, error) {
	samples, err := CollectSamples(w, base, nil, 0)
	if err != nil {
		return nil, err
	}
	return FitOptimus(w.Sync, base.GFLOPS, samples)
}
