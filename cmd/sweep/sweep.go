package main

import (
	"fmt"
	"runtime"
	"sync"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
)

// point is one configuration to simulate.
type point struct {
	workload *model.Workload
	cluster  cloud.ClusterSpec
	// iterations overrides the workload budget when > 0.
	iterations int
	seed       int64
	// label is carried through to the outcome for identification.
	label string
}

// outcome pairs a point with its simulation result (or error).
type outcome struct {
	point  point
	result *ddnnsim.Result
	err    error
}

// simulate runs every point with up to parallelism concurrent workers
// (0 selects GOMAXPROCS) and returns outcomes in input order.
func simulate(points []point, parallelism int) []outcome {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(points) {
		parallelism = len(points)
	}
	out := make([]outcome, len(points))
	if len(points) == 0 {
		return out
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := points[i]
				res, err := ddnnsim.Run(p.workload, p.cluster, ddnnsim.Options{
					Iterations: p.iterations,
					Seed:       p.seed,
					LossEvery:  max(p.iterations, 1),
				})
				out[i] = outcome{point: p, result: res, err: err}
			}
		}()
	}
	for i := range points {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// grid enumerates the cross product of workloads x types x worker counts
// x PS counts as homogeneous clusters, skipping shapes with more PS than
// workers.
func grid(workloads []*model.Workload, types []cloud.InstanceType, workers, ps []int, iterations int, seed int64) []point {
	var out []point
	for _, w := range workloads {
		for _, t := range types {
			for _, n := range workers {
				for _, p := range ps {
					if p > n || n < 1 || p < 1 {
						continue
					}
					out = append(out, point{
						workload:   w,
						cluster:    cloud.Homogeneous(t, n, p),
						iterations: iterations,
						seed:       seed,
						label:      fmt.Sprintf("%s/%s/%dwk/%dps", w.Name, t.Name, n, p),
					})
				}
			}
		}
	}
	return out
}

// best returns the outcome with the smallest training time among
// successful runs, or an error if none succeeded.
func best(outcomes []outcome) (outcome, error) {
	var b outcome
	found := false
	for _, oc := range outcomes {
		if oc.err != nil || oc.result == nil {
			continue
		}
		if !found || oc.result.TrainingTime < b.result.TrainingTime {
			b = oc
			found = true
		}
	}
	if !found {
		return outcome{}, fmt.Errorf("no successful outcomes among %d", len(outcomes))
	}
	return b, nil
}
