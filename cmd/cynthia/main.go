// Command cynthia is the provisioning CLI: given a Table 1 workload, a
// training deadline, and a target loss, it profiles the workload on a
// baseline worker, computes the cost-efficient provisioning plan
// (Algorithm 1), and optionally validates the plan in the training
// simulator.
//
// Usage:
//
//	cynthia -workload "cifar10 DNN" -deadline 5400 -loss 0.8 \
//	        [-predictor cynthia|optimus|paleo] [-provisioner cynthia|optimus-mg] \
//	        [-plan-timeout 5s] [-validate]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cynthia/internal/baseline"
	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/cluster"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/profile"
)

func main() {
	var (
		workloadName = flag.String("workload", "cifar10 DNN", "Table 1 workload name")
		workloadFile = flag.String("workload-file", "", "JSON file describing a custom workload (overrides -workload)")
		deadline     = flag.Float64("deadline", 5400, "training deadline in seconds")
		lossTarget   = flag.Float64("loss", 0.8, "target training loss")
		baseName     = flag.String("baseline", cloud.M4XLarge, "profiling baseline instance type")
		predictor    = flag.String("predictor", "cynthia", "performance model: cynthia, optimus, or paleo")
		provisioner  = flag.String("provisioner", "cynthia", "planning strategy: cynthia (Algorithm 1) or optimus-mg (marginal gain)")
		planTimeout  = flag.Duration("plan-timeout", 0, "abort the candidate search after this long (0 = no limit)")
		validate     = flag.Bool("validate", false, "simulate the plan and report the actual training time")
		list         = flag.Bool("list", false, "list available workloads and instance types")
		faultRate    = flag.Float64("fault-rate", 0, "probability that an instance is spot-preempted during the run (enables the controller pipeline)")
		preemptAt    = flag.Float64("preempt-at", 0, "preempt one instance at this simulated second (enables the controller pipeline)")
		seed         = flag.Int64("seed", 0, "fault-injection and simulation seed")
		noRecovery   = flag.Bool("no-recovery", false, "fail the job on the first preemption instead of recovering")
		timeline     = flag.Bool("timeline", false, "print the job's flight-recorder timeline after the run (controller pipeline only)")
		spot         = flag.Bool("spot", false, "bid on the simulated spot market and re-plan at price change-points (enables the controller pipeline)")
		traceFile    = flag.String("trace", "", "spot price-trace JSON file (a pricing.TraceSet); empty generates a mean-reverting market from -seed")
		bidStrategy  = flag.String("bid-strategy", "balanced", "spot bidding posture: aggressive, balanced, or conservative")
	)
	flag.Parse()
	if *faultRate > 0 || *preemptAt > 0 || *spot {
		fi := faultInjection{Rate: *faultRate, PreemptAt: *preemptAt, Seed: *seed, NoRecovery: *noRecovery, Timeline: *timeline,
			Spot: *spot, TraceFile: *traceFile, BidStrategy: *bidStrategy}
		if err := runControlled(*workloadName, *workloadFile, *deadline, *lossTarget, fi); err != nil {
			fmt.Fprintln(os.Stderr, "cynthia:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workloadName, *workloadFile, *deadline, *lossTarget, *baseName, *predictor,
		*provisioner, *planTimeout, *validate, *list); err != nil {
		fmt.Fprintln(os.Stderr, "cynthia:", err)
		os.Exit(1)
	}
}

// faultInjection bundles the fault-mode and spot-market flags.
type faultInjection struct {
	Rate        float64
	PreemptAt   float64
	Seed        int64
	NoRecovery  bool
	Timeline    bool
	Spot        bool
	TraceFile   string
	BidStrategy string
}

// loadTraces reads the -trace file, or generates a deterministic
// mean-reverting market over the catalog's types from the run seed.
func loadTraces(path string, seed int64, catalog *cloud.Catalog) (*pricing.TraceSet, error) {
	if path != "" {
		return pricing.LoadTraceSet(path)
	}
	od := make(map[string]float64)
	for _, t := range catalog.Types() {
		od[t.Name] = t.PricePerHour
	}
	return pricing.GenerateSet("generated", od, pricing.GenSpec{
		Kind: "mean-revert", Seed: seed, HorizonSec: 7200, StepSec: 60,
		Base: 0.55, Volatility: 0.15, Min: 0.30, Max: 0.95,
	})
}

// runControlled drives the full controller pipeline — master, simulated
// provider with fault injection, recovery state machine — instead of the
// plan-only path, and reports how the job fared under failures.
func runControlled(workloadName, workloadFile string, deadline, lossTarget float64, fi faultInjection) error {
	w, err := loadWorkload(workloadName, workloadFile)
	if err != nil {
		return err
	}
	master, err := cluster.NewMaster()
	if err != nil {
		return err
	}
	// The provider runs on a manually advanced clock tied to simulated
	// time, so -preempt-at means simulated seconds into the run.
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	// The flight recorder correlates the whole run: instance lifecycle
	// events from the provider land in the master's journal next to the
	// controller and planner events.
	provider.SetJournal(master.Journal())
	provider.SetFaultPlan(cloud.FaultPlan{
		Seed:          fi.Seed,
		PreemptRate:   fi.Rate,
		PreemptMinSec: 0,
		PreemptMaxSec: deadline,
		PreemptAtSec:  fi.PreemptAt,
	})
	ctl := cluster.NewController(master, provider, nil, "")
	ctl.AdvanceClock = func(dt float64) { *now += dt }
	ctl.SimSeed = fi.Seed
	ctl.Recovery.Disabled = fi.NoRecovery
	if fi.Spot {
		strat, err := pricing.ParseStrategy(fi.BidStrategy)
		if err != nil {
			return err
		}
		set, err := loadTraces(fi.TraceFile, fi.Seed, provider.Catalog())
		if err != nil {
			return err
		}
		m, err := cloud.NewMarket(provider.Catalog(), set)
		if err != nil {
			return err
		}
		provider.SetMarket(m)
		ctl.SpotStrategy = strat
		fmt.Printf("spot market: %d price traces (%s), %s bidding\n",
			len(set.Traces), set.Name, strat)
	}

	fmt.Printf("submitting %s (deadline %.0fs, loss %.2f) with fault injection: rate %.2f, preempt-at %.0fs, seed %d\n",
		w.Name, deadline, lossTarget, fi.Rate, fi.PreemptAt, fi.Seed)
	// The correlation ID is minted here, at the CLI edge, and threads
	// through every flight-recorder event the job produces.
	trace := fmt.Sprintf("cli-%d", fi.Seed)
	job, err := ctl.SubmitTraced(w, plan.Goal{TimeSec: deadline, LossTarget: lossTarget}, trace)
	if job == nil {
		return err
	}
	fmt.Printf("job %s: %s\n", job.ID, job.Status)
	fmt.Printf("  plan:        %s\n", job.Plan)
	hist := make([]string, len(job.History))
	for i, s := range job.History {
		hist[i] = string(s)
	}
	fmt.Printf("  lifecycle:   %s\n", strings.Join(hist, " -> "))
	fmt.Printf("  time:        %.0fs of %.0fs budget (%.0f%% used)\n",
		job.TrainingTime, deadline, 100*job.TrainingTime/deadline)
	fmt.Printf("  cost:        $%.3f (plan predicted $%.3f)\n", job.Cost, job.Plan.Cost)
	fmt.Printf("  recoveries:  %d (%d iterations of lost work redone)\n", job.Recoveries, job.LostIterations)
	if fi.Spot {
		fmt.Printf("  elastic:     %d mid-run scales at price change-points\n", job.ElasticScales)
	}
	if job.Err != "" {
		fmt.Printf("  error:       %s\n", job.Err)
	}
	if fi.Timeline {
		fmt.Println()
		tl := journal.BuildTimeline(job.ID, master.Journal().JobEvents(job.ID))
		if err := tl.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func loadWorkload(name, file string) (*model.Workload, error) {
	if file == "" {
		return model.WorkloadByName(name)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return model.ReadWorkload(f)
}

func run(workloadName, workloadFile string, deadline, lossTarget float64, baseName, predictorName,
	provisionerName string, planTimeout time.Duration, validate, list bool) error {
	catalog := cloud.DefaultCatalog()
	if list {
		fmt.Println("workloads:")
		for _, w := range model.Workloads() {
			fmt.Printf("  %-12s %s, batch %d, %d iterations\n", w.Name, w.Sync, w.Batch, w.Iterations)
		}
		fmt.Println("instance types:")
		for _, t := range catalog.Types() {
			fmt.Printf("  %s\n", t)
		}
		return nil
	}

	w, err := loadWorkload(workloadName, workloadFile)
	if err != nil {
		return err
	}
	base, err := catalog.Lookup(baseName)
	if err != nil {
		return err
	}

	fmt.Printf("profiling %s for %d iterations on one %s worker...\n", w.Name, profile.DefaultIterations, base.Name)
	rep, err := profile.Run(w, base, 0)
	if err != nil {
		return err
	}
	p := rep.Profile
	fmt.Printf("  witer=%.2f GFLOPs  gparam=%.2f MB  cprof=%.3f GFLOPS  bprof=%.2f MB/s  (%.1fs profiling)\n",
		p.WiterGFLOPs, p.GparamMB, p.CprofGFLOPS, p.BprofMBps, rep.Duration)

	var pred perf.Predictor
	switch predictorName {
	case "cynthia":
		pred = perf.Cynthia{}
	case "paleo":
		pred = baseline.Paleo{}
	case "optimus":
		opt, err := baseline.FitFromSimulator(w, base)
		if err != nil {
			return err
		}
		pred = opt
	default:
		return fmt.Errorf("unknown predictor %q", predictorName)
	}

	// The engine's Provision keeps Algorithm 1's early break; the
	// marginal-gain comparator has only its one-pass Search.
	provision := plan.DefaultEngine.Provision
	provName := "Algorithm 1"
	switch provisionerName {
	case "cynthia":
	case "optimus-mg":
		provision = func(ctx context.Context, req plan.Request) (plan.Plan, error) {
			res, err := baseline.MarginalGain{}.Search(ctx, req)
			return res.Plan, err
		}
		provName = baseline.MarginalGain{}.Name()
	default:
		return fmt.Errorf("unknown provisioner %q", provisionerName)
	}

	ctx := context.Background()
	if planTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, planTimeout)
		defer cancel()
	}
	goal := plan.Goal{TimeSec: deadline, LossTarget: lossTarget}
	pl, err := provision(ctx, plan.Request{Profile: p, Goal: goal, Predictor: pred, Catalog: catalog})
	if err != nil {
		return err
	}
	fmt.Printf("plan [%s / %s]: %s\n", provName, pred.Name(), pl)

	if validate {
		fmt.Println("validating in the simulator...")
		res, err := ddnnsim.Run(w, cloud.Homogeneous(pl.Type, pl.Workers, pl.PS),
			ddnnsim.Options{Iterations: pl.Iterations, LossEvery: pl.Iterations})
		if err != nil {
			return err
		}
		status := "met"
		if res.TrainingTime > goal.TimeSec {
			status = "MISSED"
		}
		fmt.Printf("  actual: %.0fs (goal %.0fs, %s), final loss %.3f, cost $%.3f\n",
			res.TrainingTime, goal.TimeSec, status, res.FinalLoss,
			plan.Cost(pl.Type, pl.Workers, pl.PS, res.TrainingTime))
	}
	return nil
}
