package experiments

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

func init() {
	register("extension-gpu", extensionGPU)
}

// extensionGPU implements the paper's Sec. 7 future work: ResNet-50 on an
// ImageNet-scale dataset, provisioned from a GPU instance catalog. Two
// tables come out: model-validation (observed vs Cynthia across GPU
// types and worker counts) and provisioning (plans per deadline).
func extensionGPU(cfg Config) ([]*Table, error) {
	w := model.ResNet50Workload()
	gpus := cloud.GPUCatalog()
	p2, err := gpus.Lookup(cloud.P2XLarge)
	if err != nil {
		return nil, err
	}
	v100, err := gpus.Lookup(cloud.P3_2XLarge)
	if err != nil {
		return nil, err
	}
	prof := perf.SyntheticProfile(w, p2) // profiled once on the K80 tier
	iters := cfg.iters(w.Iterations) / 4
	if iters < 60 {
		iters = 60
	}

	preds := []perf.Predictor{perf.Cynthia{}}
	ta := &Table{
		ID:     "Extension (validation)",
		Title:  "ResNet-50 (BSP) on GPU instances: observed vs Cynthia, profiled on p2.xlarge",
		Header: predictionHeader(preds),
	}
	for _, c := range []struct {
		t   cloud.InstanceType
		n   int
		nps int
	}{
		{p2, 2, 1}, {p2, 4, 1}, {p2, 8, 1},
		{v100, 2, 1}, {v100, 4, 1}, {v100, 8, 2},
	} {
		row, err := predictionRow(w, prof, preds, cloud.Homogeneous(c.t, c.n, c.nps), iters, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row[0] = fmt.Sprintf("%d(%s)", c.n, c.t.Name)
		ta.AddRow(row...)
	}
	ta.Notes = append(ta.Notes,
		"GPU compute rates shift the balance: the PS tier saturates at single-digit worker counts")

	tb := &Table{
		ID:     "Extension (provisioning)",
		Title:  "ResNet-50 (BSP) deadline goals on the GPU catalog",
		Header: []string{"goal(s)", "loss", "plan", "predicted(s)", "actual(s)", "met", "cost($)"},
	}
	for _, tg := range []float64{1800, 3600, 7200} {
		goal := plan.Goal{TimeSec: tg, LossTarget: 2.0}
		pl, err := plan.Provision(plan.Request{Profile: prof, Goal: goal, Catalog: gpus})
		if err != nil {
			return nil, err
		}
		res, err := ddnnsim.Run(w, cloud.Homogeneous(pl.Type, pl.Workers, pl.PS),
			ddnnsim.Options{Iterations: pl.Iterations, Seed: cfg.Seed, LossEvery: pl.Iterations})
		if err != nil {
			return nil, err
		}
		met := "yes"
		if res.TrainingTime > tg*1.05 {
			met = "NO"
		}
		cost := plan.Cost(pl.Type, pl.Workers, pl.PS, res.TrainingTime)
		tb.AddRow(f1(tg), f2(goal.LossTarget),
			fmt.Sprintf("%dwk+%dps %s", pl.Workers, pl.PS, pl.Type.Name),
			f1(pl.PredTime), f1(res.TrainingTime), met, f3(cost))
	}
	return []*Table{ta, tb}, nil
}
