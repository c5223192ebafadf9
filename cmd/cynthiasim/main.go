// Command cynthiasim runs the DDNN training simulator directly: pick a
// workload and a cluster shape, get training time, utilization, and
// throughput measurements.
//
// Usage:
//
//	cynthiasim -workload "mnist DNN" -workers 8 -ps 1 [-type m4.xlarge] [-stragglers] [-iterations 500]
package main

import (
	"flag"
	"fmt"
	"os"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/obs"
)

func main() {
	var (
		workloadName = flag.String("workload", "mnist DNN", "Table 1 workload name")
		workers      = flag.Int("workers", 4, "number of worker dockers")
		ps           = flag.Int("ps", 1, "number of PS dockers")
		typeName     = flag.String("type", cloud.M4XLarge, "instance type")
		stragglers   = flag.Bool("stragglers", false, "make ⌊n/2⌋ workers m1.xlarge stragglers")
		iterations   = flag.Int("iterations", 0, "iteration budget (0 = workload default)")
		seed         = flag.Int64("seed", 0, "simulation seed")
		trace        = flag.Bool("trace", false, "print the PS NIC throughput series")
		records      = flag.Bool("records", false, "print per-iteration records as CSV")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace_event JSON file of the run (open in chrome://tracing or Perfetto)")
		faultAt      = flag.Float64("fault-at", 0, "kill one docker at this simulated second (0 = no fault)")
		faultRole    = flag.String("fault-role", "worker", "role of the docker killed by -fault-at: worker or ps")
		checkpoint   = flag.Int("checkpoint-every", 0, "checkpoint cadence in iterations (0 = no checkpointing)")
	)
	flag.Parse()
	if err := run(*workloadName, *workers, *ps, *typeName, *stragglers, *iterations, *seed, *trace, *records, *traceOut,
		*faultAt, *faultRole, *checkpoint); err != nil {
		fmt.Fprintln(os.Stderr, "cynthiasim:", err)
		os.Exit(1)
	}
}

func run(workloadName string, workers, ps int, typeName string, stragglers bool, iterations int, seed int64, trace, records bool, traceOut string,
	faultAt float64, faultRole string, checkpoint int) error {
	w, err := model.WorkloadByName(workloadName)
	if err != nil {
		return err
	}
	catalog := cloud.DefaultCatalog()
	it, err := catalog.Lookup(typeName)
	if err != nil {
		return err
	}
	spec := cloud.Homogeneous(it, workers, ps)
	if stragglers {
		m1, err := catalog.Lookup(cloud.M1XLarge)
		if err != nil {
			return err
		}
		spec = cloud.Heterogeneous(it, m1, workers, ps)
	}
	opt := ddnnsim.Options{
		Iterations: iterations, Seed: seed, LossEvery: 1, RecordIterations: records,
		CheckpointEvery: checkpoint,
	}
	if faultAt > 0 {
		if faultRole != "worker" && faultRole != "ps" {
			return fmt.Errorf("unknown -fault-role %q (want worker or ps)", faultRole)
		}
		opt.Faults = []ddnnsim.Fault{{AtSec: faultAt, Role: faultRole}}
	}
	if trace {
		opt.TraceBin = 1
	}
	var tracer *obs.Tracer
	if traceOut != "" {
		tracer = new(obs.Tracer)
		opt.Trace = tracer
	}
	res, err := ddnnsim.Run(w, spec, opt)
	if err != nil {
		return err
	}
	if tracer != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote trace with %d events to %s\n", len(tracer.Events()), traceOut)
	}
	fmt.Printf("%s on %d x %s workers + %d PS", w.Name, workers, typeName, ps)
	if stragglers {
		fmt.Printf(" (with %d m1.xlarge stragglers)", workers/2)
	}
	fmt.Println()
	if res.Interrupted {
		fmt.Printf("  INTERRUPTED:       %s[%d] died at %.1f s after %d iterations (%d checkpointed, %d lost)\n",
			res.Fault.Role, res.Fault.Index, res.TrainingTime, res.Iterations, res.CheckpointIter, res.LostIterations)
	}
	fmt.Printf("  training time:     %.1f s (%d iterations, %.3f s/iter)\n",
		res.TrainingTime, res.Iterations, res.MeanIterTime)
	fmt.Printf("  computation time:  %.1f s   communication time: %.1f s\n", res.ComputeTime, res.CommTime)
	fmt.Printf("  worker CPU util:   %.1f%% (mean)\n", res.MeanWorkerCPUUtil()*100)
	for k := range res.PSCPUUtil {
		fmt.Printf("  PS %d:              CPU %.1f%%, NIC %.1f%%\n", k, res.PSCPUUtil[k]*100, res.PSNICUtil[k]*100)
	}
	fmt.Printf("  final loss:        %.3f\n", res.FinalLoss)
	if trace && len(res.PSNICSeries) > 0 {
		fmt.Println("  PS0 NIC throughput (MB/s per second):")
		for i, r := range res.PSNICSeries[0].Rates() {
			fmt.Printf("    t=%4ds  %7.1f\n", i, r)
		}
	}
	if records {
		fmt.Println("iteration,worker,end_sec,compute_sec,comm_sec")
		for _, r := range res.IterRecords {
			fmt.Printf("%d,%d,%.4f,%.4f,%.4f\n", r.Index, r.Worker, r.EndSec, r.ComputeSec, r.CommSec)
		}
	}
	return nil
}
