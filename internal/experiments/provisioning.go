package experiments

import (
	"context"
	"fmt"
	"time"

	"cynthia/internal/baseline"
	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/profile"
)

func init() {
	register("figure11", figure11)
	register("figure12", figure12)
	register("figure13", figure13)
	register("section5.3", section53)
}

// strategyResult provisions with one strategy (a plan.Provisioner; nil
// selects the Cynthia engine) and predictor, simulates the resulting
// cluster, and reports actual time + cost.
func strategyResult(w *model.Workload, prof *perf.Profile, prov plan.Provisioner,
	pred perf.Predictor, goal plan.Goal, seed int64) (plan.Plan, float64, float64, error) {
	if prov == nil {
		prov = plan.DefaultEngine
	}
	found, err := prov.Search(context.Background(), plan.Request{
		Profile:   prof,
		Goal:      goal,
		Predictor: pred,
		Catalog:   mustM4Catalog(),
	})
	if err != nil {
		return plan.Plan{}, 0, 0, err
	}
	pl := found.Plan
	res, err := ddnnsim.Run(w, cloud.Homogeneous(pl.Type, pl.Workers, pl.PS),
		ddnnsim.Options{Iterations: pl.Iterations, Seed: seed, LossEvery: pl.Iterations})
	if err != nil {
		return plan.Plan{}, 0, 0, err
	}
	return pl, res.TrainingTime, plan.Cost(pl.Type, pl.Workers, pl.PS, res.TrainingTime), nil
}

// mustM4Catalog returns a catalog holding only m4.xlarge, matching the
// paper's Figs. 11-13 which provision m4 clusters.
func mustM4Catalog() *cloud.Catalog {
	c, err := cloud.NewCatalog(mustType(cloud.M4XLarge))
	if err != nil {
		panic(err)
	}
	return c
}

// goalComparison renders one provisioning comparison: Cynthia (Algorithm
// 1 + Cynthia predictor), the paper's modified Optimus (Algorithm 1 +
// fitted Optimus predictor), and the Optimus marginal-gain allocator
// (greedy climb + fitted Optimus predictor). The saving column compares
// Cynthia against modified Optimus, as in the paper.
func goalComparison(id, title string, w *model.Workload, goals []plan.Goal, seed int64) (*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	prof := perf.SyntheticProfile(w, m4)
	opt, err := baseline.FitFromSimulator(w, m4)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title,
		Header: []string{"goal(s)", "loss", "strategy", "plan", "actual(s)", "met", "cost($)", "saving"}}
	for _, goal := range goals {
		cynPlan, cynTime, cynCost, err := strategyResult(w, prof, nil, perf.Cynthia{}, goal, seed)
		if err != nil {
			return nil, err
		}
		optPlan, optTime, optCost, err := strategyResult(w, prof, nil, opt, goal, seed)
		if err != nil {
			return nil, err
		}
		mgPlan, mgTime, mgCost, err := strategyResult(w, prof, baseline.MarginalGain{}, opt, goal, seed)
		if err != nil {
			return nil, err
		}
		saving := 0.0
		if optCost > 0 {
			saving = (optCost - cynCost) / optCost
		}
		planStr := func(p plan.Plan) string {
			return fmt.Sprintf("%dwk+%dps %s", p.Workers, p.PS, p.Type.Name)
		}
		met := func(actual float64) string {
			if actual <= goal.TimeSec*1.05 {
				return "yes"
			}
			return "NO"
		}
		t.AddRow(f1(goal.TimeSec), f2(goal.LossTarget), "Cynthia", planStr(cynPlan), f1(cynTime), met(cynTime), f3(cynCost), pct(saving))
		t.AddRow(f1(goal.TimeSec), f2(goal.LossTarget), "Optimus", planStr(optPlan), f1(optTime), met(optTime), f3(optCost), "-")
		t.AddRow(f1(goal.TimeSec), f2(goal.LossTarget), "Optimus-MG", planStr(mgPlan), f1(mgTime), met(mgTime), f3(mgCost), "-")
	}
	return t, nil
}

// figure11 reproduces Fig. 11: deadline goals for the cifar10 DNN and
// ResNet-32, both with BSP, comparing Cynthia and modified Optimus.
func figure11(cfg Config) ([]*Table, error) {
	var tables []*Table
	cifar, err := workload("cifar10 DNN")
	if err != nil {
		return nil, err
	}
	goals := []plan.Goal{
		{TimeSec: 5400, LossTarget: 0.8},
		{TimeSec: 7200, LossTarget: 0.8},
		{TimeSec: 10800, LossTarget: 0.8},
	}
	ta, err := goalComparison("Figure 11 (cifar10)", "cifar10 DNN (BSP): deadline goals, Cynthia vs Optimus", cifar, goals, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tables = append(tables, ta)

	resnet, err := workload("ResNet-32")
	if err != nil {
		return nil, err
	}
	resnetBSP := resnet.WithSync(model.BSP)
	goals = []plan.Goal{
		{TimeSec: 5400, LossTarget: 0.6},
		{TimeSec: 7200, LossTarget: 0.6},
		{TimeSec: 10800, LossTarget: 0.6},
	}
	tb, err := goalComparison("Figure 11 (ResNet-32)", "ResNet-32 (BSP): deadline goals, Cynthia vs Optimus", resnetBSP, goals, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tables = append(tables, tb)
	return tables, nil
}

// figure12 reproduces Fig. 12: target-loss sweep for the cifar10 DNN
// with BSP at a fixed 60-minute deadline.
func figure12(cfg Config) ([]*Table, error) {
	cifar, err := workload("cifar10 DNN")
	if err != nil {
		return nil, err
	}
	goals := []plan.Goal{
		{TimeSec: 3600, LossTarget: 0.8},
		{TimeSec: 3600, LossTarget: 0.7},
		{TimeSec: 3600, LossTarget: 0.6},
	}
	t, err := goalComparison("Figure 12", "cifar10 DNN (BSP): target-loss sweep at a 60-minute deadline", cifar, goals, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "tighter loss targets require more iterations; Cynthia adds a second PS when communication would miss the deadline")
	return []*Table{t}, nil
}

// figure13 reproduces Fig. 13: deadline goals for VGG-19 with ASP.
func figure13(cfg Config) ([]*Table, error) {
	vgg, err := workload("VGG-19")
	if err != nil {
		return nil, err
	}
	goals := []plan.Goal{
		{TimeSec: 1800, LossTarget: 0.8},
		{TimeSec: 3600, LossTarget: 0.8},
		{TimeSec: 5400, LossTarget: 0.8},
	}
	t, err := goalComparison("Figure 13", "VGG-19 (ASP): deadline goals, Cynthia vs Optimus", vgg, goals, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// section53 reproduces the Sec. 5.3 runtime-overhead study: per-workload
// profiling duration and Algorithm 1 computation time.
func section53(cfg Config) ([]*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	tProf := &Table{
		ID:     "Section 5.3 (profiling)",
		Title:  "Workload profiling overhead (30 iterations on one m4.xlarge worker)",
		Header: []string{"workload", "profiling time", "paper"},
	}
	paper := map[string]string{
		"mnist DNN": "0.9 s", "cifar10 DNN": "4.0 min", "ResNet-32": "6.0 min", "VGG-19": "10.4 min",
	}
	reports, err := profile.RunAll(m4, 0)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"mnist DNN", "cifar10 DNN", "ResNet-32", "VGG-19"} {
		rep := reports[name]
		tProf.AddRow(name, fmt.Sprintf("%.1f s", rep.Duration), paper[name])
	}

	tAlg := &Table{
		ID:     "Section 5.3 (Algorithm 1)",
		Title:  "Provisioning computation time (wall clock)",
		Header: []string{"workload", "goal", "compute time", "paper"},
	}
	algPaper := map[string]string{"cifar10 DNN": "19 ms", "ResNet-32": "39 ms", "VGG-19": "13 ms"}
	cases := []struct {
		name string
		goal plan.Goal
		sync model.SyncMode
	}{
		{"cifar10 DNN", plan.Goal{TimeSec: 5400, LossTarget: 0.8}, model.BSP},
		{"ResNet-32", plan.Goal{TimeSec: 5400, LossTarget: 0.6}, model.BSP},
		{"VGG-19", plan.Goal{TimeSec: 3600, LossTarget: 0.8}, model.ASP},
	}
	for _, c := range cases {
		w, err := workload(c.name)
		if err != nil {
			return nil, err
		}
		if w.Sync != c.sync {
			w = w.WithSync(c.sync)
		}
		prof := perf.SyntheticProfile(w, m4)
		start := time.Now()
		const reps = 100
		for i := 0; i < reps; i++ {
			if _, err := plan.Provision(plan.Request{Profile: prof, Goal: c.goal}); err != nil {
				return nil, err
			}
		}
		per := time.Since(start) / reps
		tAlg.AddRow(c.name, fmt.Sprintf("%.0fs/%.1f", c.goal.TimeSec, c.goal.LossTarget),
			per.Round(time.Microsecond).String(), algPaper[c.name])
	}
	tAlg.Notes = append(tAlg.Notes, "mean over 100 runs; milliseconds or below, matching the paper's 13-39 ms")
	return []*Table{tProf, tAlg}, nil
}
