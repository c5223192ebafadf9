package cynthia_test

// One benchmark per paper table and figure: each b.N iteration regenerates
// the experiment (at a reduced iteration scale so a full -bench=. sweep
// stays tractable), plus the ablation benchmarks DESIGN.md calls out.
// Accuracy-style ablations report their prediction error through
// b.ReportMetric as "%err".

import (
	"testing"

	"cynthia/internal/baseline"
	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/experiments"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// benchCfg keeps per-iteration work bounded.
var benchCfg = experiments.Config{Scale: 0.02, Seed: 1}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkFigure1TrainingTime(b *testing.B)        { benchExperiment(b, "figure1") }
func BenchmarkTable2CPUUtilization(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFigure2PSNetworkThroughput(b *testing.B) { benchExperiment(b, "figure2") }
func BenchmarkFigure3Breakdown(b *testing.B)           { benchExperiment(b, "figure3") }
func BenchmarkFigure4LossCurves(b *testing.B)          { benchExperiment(b, "figure4") }
func BenchmarkTable4Profiling(b *testing.B)            { benchExperiment(b, "table4") }
func BenchmarkFigure6PredictionAccuracy(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkFigure7VGGThroughput(b *testing.B)       { benchExperiment(b, "figure7") }
func BenchmarkFigure8CrossInstance(b *testing.B)       { benchExperiment(b, "figure8") }
func BenchmarkFigure9Heterogeneous(b *testing.B)       { benchExperiment(b, "figure9") }
func BenchmarkFigure10MultiPS(b *testing.B)            { benchExperiment(b, "figure10") }
func BenchmarkFigure11GoalsBSP(b *testing.B)           { benchExperiment(b, "figure11") }
func BenchmarkFigure12LossSweep(b *testing.B)          { benchExperiment(b, "figure12") }
func BenchmarkFigure13GoalsASP(b *testing.B)           { benchExperiment(b, "figure13") }
func BenchmarkSection53AlgorithmOverhead(b *testing.B) { benchExperiment(b, "section5.3") }
func BenchmarkExtensionGPU(b *testing.B)               { benchExperiment(b, "extension-gpu") }
func BenchmarkFigure4RealTraining(b *testing.B)        { benchExperiment(b, "figure4-real") }

// BenchmarkSection53ProvisionOnly times a single Algorithm 1 run (the
// paper's 13-39 ms figure) without the surrounding experiment harness.
func BenchmarkSection53ProvisionOnly(b *testing.B) {
	m4, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		b.Fatal(err)
	}
	w, err := model.WorkloadByName("cifar10 DNN")
	if err != nil {
		b.Fatal(err)
	}
	p := perf.SyntheticProfile(w, m4)
	goal := plan.Goal{TimeSec: 5400, LossTarget: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Provision(plan.Request{Profile: p, Goal: goal}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationOverlap compares the overlapped BSP iteration model
// (max, Cynthia) against the unoverlapped sum (Paleo-style) on the
// balanced cifar10 configuration, reporting both prediction errors.
func BenchmarkAblationOverlap(b *testing.B) {
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	w, _ := model.WorkloadByName("cifar10 DNN")
	p := perf.SyntheticProfile(w, m4)
	cluster := cloud.Homogeneous(m4, 12, 1)
	const iters = 120
	obs, err := ddnnsim.Run(w, cluster, ddnnsim.Options{Iterations: iters, LossEvery: iters})
	if err != nil {
		b.Fatal(err)
	}
	var maxErr, sumErr float64
	for i := 0; i < b.N; i++ {
		overlapped, err := perf.Cynthia{}.TrainingTime(p, cluster, iters)
		if err != nil {
			b.Fatal(err)
		}
		summed, err := baseline.Paleo{}.TrainingTime(p, cluster, iters)
		if err != nil {
			b.Fatal(err)
		}
		maxErr = perf.PredictionError(overlapped, obs.TrainingTime)
		sumErr = perf.PredictionError(summed, obs.TrainingTime)
	}
	b.ReportMetric(maxErr*100, "%err-overlap")
	b.ReportMetric(sumErr*100, "%err-sum")
}

// BenchmarkAblationBottleneck compares Cynthia with its PS bottleneck
// model against a variant that ignores the PS (raw NIC bandwidth, full
// worker utilization) on the PS-bound mnist configuration.
func BenchmarkAblationBottleneck(b *testing.B) {
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	w, _ := model.WorkloadByName("mnist DNN")
	p := perf.SyntheticProfile(w, m4)
	cluster := cloud.Homogeneous(m4, 8, 1)
	const iters = 400
	obs, err := ddnnsim.Run(w, cluster, ddnnsim.Options{Iterations: iters, LossEvery: iters})
	if err != nil {
		b.Fatal(err)
	}
	// The bottleneck-blind variant is Cynthia with the PS CPU signal
	// erased from the profile.
	blind := *p
	blind.CprofGFLOPS = 0
	var withErr, withoutErr float64
	for i := 0; i < b.N; i++ {
		on, err := perf.Cynthia{}.TrainingTime(p, cluster, iters)
		if err != nil {
			b.Fatal(err)
		}
		off, err := perf.Cynthia{}.TrainingTime(&blind, cluster, iters)
		if err != nil {
			b.Fatal(err)
		}
		withErr = perf.PredictionError(on, obs.TrainingTime)
		withoutErr = perf.PredictionError(off, obs.TrainingTime)
	}
	b.ReportMetric(withErr*100, "%err-bottleneck")
	b.ReportMetric(withoutErr*100, "%err-blind")
}

// BenchmarkAblationBounds compares Algorithm 1 with Theorem 4.1's bounded
// search against a full scan over every worker count up to the quota.
func BenchmarkAblationBounds(b *testing.B) {
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	w, _ := model.WorkloadByName("cifar10 DNN")
	p := perf.SyntheticProfile(w, m4)
	goal := plan.Goal{TimeSec: 5400, LossTarget: 0.8}
	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Provision(plan.Request{Profile: p, Goal: goal}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		// Exhaustive scan: evaluate every (type, n, nps<=4) candidate.
		catalog := cloud.DefaultCatalog()
		for i := 0; i < b.N; i++ {
			best := plan.Plan{}
			have := false
			for _, t := range catalog.Types() {
				for nps := 1; nps <= 4; nps++ {
					for n := nps; n <= plan.MaxWorkers; n++ {
						iters, err := w.IterationsToLoss(goal.LossTarget, n)
						if err != nil {
							continue
						}
						spec := cloud.Homogeneous(t, n, nps)
						total, err := perf.Cynthia{}.TrainingTime(p, spec, iters)
						if err != nil || total > goal.TimeSec {
							continue
						}
						cost := t.PricePerHour * float64(n+nps) * total / 3600
						if !have || cost < best.Cost {
							best = plan.Plan{Type: t, Workers: n, PS: nps, Cost: cost, Feasible: true}
							have = true
						}
					}
				}
			}
			if !have {
				b.Fatal("full scan found nothing")
			}
		}
	})
}

// BenchmarkAblationMinPS compares the minimum-PS rule (Eq. 18/22) against
// forcing extra PS nodes, reporting the plan costs.
func BenchmarkAblationMinPS(b *testing.B) {
	m4, _ := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	w, _ := model.WorkloadByName("cifar10 DNN")
	p := perf.SyntheticProfile(w, m4)
	goal := plan.Goal{TimeSec: 5400, LossTarget: 0.8}
	var minCost, forcedCost float64
	for i := 0; i < b.N; i++ {
		pl, err := plan.Provision(plan.Request{Profile: p, Goal: goal})
		if err != nil {
			b.Fatal(err)
		}
		minCost = pl.Cost
		// Force 4 PS nodes: evaluate the same worker count with nps=4.
		iters, err := w.IterationsToLoss(goal.LossTarget, pl.Workers)
		if err != nil {
			b.Fatal(err)
		}
		total, err := perf.Cynthia{}.TrainingTime(p, cloud.Homogeneous(pl.Type, pl.Workers, 4), iters)
		if err != nil {
			b.Fatal(err)
		}
		forcedCost = pl.Type.PricePerHour * float64(pl.Workers+4) * total / 3600
	}
	b.ReportMetric(minCost, "$min-ps")
	b.ReportMetric(forcedCost, "$forced-4ps")
}
