// Package profile implements Cynthia's lightweight workload profiling
// (paper Sec. 3): train the DDNN workload for a small, fixed number of
// iterations (30 in the paper) on one baseline worker with one PS node and
// measure witer, gparam, cprof, and bprof. Each workload is profiled only
// once, on a single instance type — the resulting Profile predicts
// performance on any cluster of any catalog type (validated by the paper's
// Fig. 8).
package profile

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/perf"
)

// DefaultIterations is the paper's profiling length.
const DefaultIterations = 30

// Report is the outcome of one profiling run.
type Report struct {
	// Profile holds the measured model parameters.
	Profile *perf.Profile
	// Duration is the profiling run's wall time in (simulated) seconds —
	// the overhead the paper reports in Sec. 5.3.
	Duration float64
	// Iterations is the number of profiled iterations.
	Iterations int
}

// Run profiles the workload on one baseline worker and one PS node of the
// given instance type. iters <= 0 selects DefaultIterations.
func Run(w *model.Workload, base cloud.InstanceType, iters int) (*Report, error) {
	if w == nil {
		return nil, fmt.Errorf("profile: nil workload")
	}
	if iters <= 0 {
		iters = DefaultIterations
	}
	res, err := ddnnsim.Run(w, cloud.Homogeneous(base, 1, 1), ddnnsim.Options{
		Iterations: iters,
		LossEvery:  iters, // only the final loss point is needed
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %s on %s: %w", w.Name, base.Name, err)
	}
	return fromResult(w, base, iters, res), nil
}

// fromResult derives the profile measurements from a 1-worker/1-PS run.
func fromResult(w *model.Workload, base cloud.InstanceType, iters int, res *ddnnsim.Result) *Report {
	tIter := res.TrainingTime / float64(iters)
	// witer = compute time per iteration x baseline capability; the
	// worker's busy CPU time is utilization x capability x wall time
	// (paper: witer = tbase * cbase, with tbase the compute portion).
	witer := res.WorkerCPUUtil[0] * base.GFLOPS * res.TrainingTime / float64(iters)
	// gparam = PS traffic / iterations / 2 (each sync pushes gradients
	// and pulls parameters of equal size).
	psNIC := base.NetMBps // PS docker is the same instance type
	trafficMB := res.PSNICUtil[0] * psNIC * res.TrainingTime
	gparam := trafficMB / (2 * float64(iters))
	return &Report{
		Profile: &perf.Profile{
			Workload:    w,
			Base:        base,
			TBaseIter:   tIter,
			WiterGFLOPs: witer,
			GparamMB:    gparam,
			CprofGFLOPS: res.PSCPUUtil[0] * base.GFLOPS,
			BprofMBps:   res.PSNICUtil[0] * psNIC,
		},
		Duration:   res.TrainingTime,
		Iterations: iters,
	}
}

// RunAll profiles every Table 1 workload on the baseline type, returning
// reports keyed by workload name.
func RunAll(base cloud.InstanceType, iters int) (map[string]*Report, error) {
	out := make(map[string]*Report)
	for _, w := range model.Workloads() {
		rep, err := Run(w, base, iters)
		if err != nil {
			return nil, err
		}
		out[w.Name] = rep
	}
	return out, nil
}
