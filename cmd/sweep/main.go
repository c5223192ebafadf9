// Command sweep explores a provisioning space in the simulator: the cross
// product of workloads, instance types, worker counts, and PS counts, run
// concurrently, with training time / utilization / cost per point.
//
// Usage:
//
//	sweep -workloads "mnist DNN" -types m4.xlarge -workers 1,2,4,8 -ps 1,2 -iterations 300
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

func main() {
	var (
		workloads  = flag.String("workloads", "mnist DNN", "comma-separated workload names")
		types      = flag.String("types", cloud.M4XLarge, "comma-separated instance types")
		workers    = flag.String("workers", "1,2,4,8", "comma-separated worker counts")
		ps         = flag.String("ps", "1", "comma-separated PS counts")
		iterations = flag.Int("iterations", 300, "iterations per run")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if err := run(*workloads, *types, *workers, *ps, *iterations, *parallel, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(workloadList, typeList, workerList, psList string, iterations, parallel int, seed int64) error {
	var ws []*model.Workload
	for _, name := range strings.Split(workloadList, ",") {
		w, err := model.WorkloadByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	catalog := cloud.ExtendedCatalog()
	var ts []cloud.InstanceType
	for _, name := range strings.Split(typeList, ",") {
		t, err := catalog.Lookup(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ts = append(ts, t)
	}
	workers, err := parseInts(workerList)
	if err != nil {
		return err
	}
	ps, err := parseInts(psList)
	if err != nil {
		return err
	}

	points := grid(ws, ts, workers, ps, iterations, seed)
	fmt.Printf("sweeping %d configurations (%d iterations each)...\n\n", len(points), iterations)
	outcomes := simulate(points, parallel)

	fmt.Printf("%-36s %12s %10s %10s %10s %10s\n",
		"configuration", "time(s)", "s/iter", "wkCPU", "psNIC", "cost($)")
	for _, oc := range outcomes {
		if oc.err != nil {
			fmt.Printf("%-36s ERROR: %v\n", oc.point.label, oc.err)
			continue
		}
		r := oc.result
		spec := oc.point.cluster
		cost := spec.HourlyCost() * r.TrainingTime / 3600
		fmt.Printf("%-36s %12.1f %10.3f %9.1f%% %9.1f%% %10.3f\n",
			oc.point.label, r.TrainingTime, r.MeanIterTime,
			r.MeanWorkerCPUUtil()*100, r.PSNICUtil[0]*100, cost)
	}
	if b, err := best(outcomes); err == nil {
		fmt.Printf("\nfastest: %s (%.1fs)\n", b.point.label, b.result.TrainingTime)
	}
	return nil
}
