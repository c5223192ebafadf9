package experiments

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/loss"
	"cynthia/internal/model"
)

func init() {
	register("table1", table1)
	register("figure1", figure1)
	register("table2", table2)
	register("figure2", figure2)
	register("figure3", figure3)
	register("figure4", figure4)
}

// table1 reproduces Table 1: the four workload configurations.
func table1(Config) ([]*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Configurations of the four DDNN training workloads",
		Header: []string{"workload", "#iterations", "batch", "dataset", "sync", "witer(GF)", "gparam(MB)"},
	}
	for _, w := range model.Workloads() {
		t.AddRow(w.Name, d(w.Iterations), d(w.Batch), w.Dataset, w.Sync.String(),
			f2(w.WiterGFLOPs), f2(w.GparamMB))
	}
	t.Notes = append(t.Notes,
		"witer/gparam derived from the layer graphs (paper Table 4 reports profiled equivalents)")
	return []*Table{t}, nil
}

// figure1 reproduces Fig. 1: training time vs workers, homogeneous vs
// heterogeneous clusters, for ResNet-32 (ASP) and the mnist DNN (BSP).
func figure1(cfg Config) ([]*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	m1 := mustType(cloud.M1XLarge)
	run := func(w *model.Workload, spec cloud.ClusterSpec, iters int) (float64, error) {
		res, err := ddnnsim.Run(w, spec, ddnnsim.Options{Iterations: iters, Seed: cfg.Seed, LossEvery: iters})
		if err != nil {
			return 0, err
		}
		return res.TrainingTime, nil
	}
	var tables []*Table
	cases := []struct {
		id, title, workload string
		workers             []int
	}{
		{"Figure 1(a)", "ResNet-32 (ASP) training time, homogeneous vs heterogeneous", "ResNet-32", []int{4, 7, 9}},
		{"Figure 1(b)", "mnist DNN (BSP) training time, homogeneous vs heterogeneous", "mnist DNN", []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		w, err := workload(c.workload)
		if err != nil {
			return nil, err
		}
		iters := cfg.iters(w.Iterations)
		t := &Table{ID: c.id, Title: c.title,
			Header: []string{"workers", "homogeneous(s)", "heterogeneous(s)"}}
		for _, n := range c.workers {
			homo, err := run(w, cloud.Homogeneous(m4, n, 1), iters)
			if err != nil {
				return nil, err
			}
			het := "N/A"
			if n >= 2 {
				hv, err := run(w, cloud.Heterogeneous(m4, m1, n, 1), iters)
				if err != nil {
					return nil, err
				}
				het = f1(hv)
			}
			t.AddRow(d(n), f1(homo), het)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%d iterations (paper: %d); heterogeneous = ⌊n/2⌋ m1.xlarge stragglers", iters, w.Iterations))
		tables = append(tables, t)
	}
	return tables, nil
}

// table2 reproduces Table 2: average CPU utilization of the PS and the
// workers for the mnist DNN, homogeneous and heterogeneous clusters.
func table2(cfg Config) ([]*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	m1 := mustType(cloud.M1XLarge)
	w, err := workload("mnist DNN")
	if err != nil {
		return nil, err
	}
	iters := cfg.iters(w.Iterations)
	t := &Table{
		ID:     "Table 2",
		Title:  "Average CPU utilization of the PS and workers (mnist DNN, BSP)",
		Header: []string{"workers", "homo PS", "homo worker", "hetero PS", "hetero worker(m4)"},
	}
	for _, n := range []int{1, 2, 4, 8} {
		homo, err := ddnnsim.Run(w, cloud.Homogeneous(m4, n, 1), ddnnsim.Options{Iterations: iters, LossEvery: iters})
		if err != nil {
			return nil, err
		}
		hetPS, hetWk := "N/A", "N/A"
		if n >= 2 {
			het, err := ddnnsim.Run(w, cloud.Heterogeneous(m4, m1, n, 1), ddnnsim.Options{Iterations: iters, LossEvery: iters})
			if err != nil {
				return nil, err
			}
			hetPS = pct(het.PSCPUUtil[0])
			// m4 workers occupy the first ⌈n/2⌉ slots of the
			// heterogeneous spec.
			nFast := n - n/2
			fastSum := 0.0
			for j := 0; j < nFast; j++ {
				fastSum += het.WorkerCPUUtil[j]
			}
			hetWk = pct(fastSum / float64(nFast))
		}
		t.AddRow(d(n), pct(homo.PSCPUUtil[0]), pct(homo.MeanWorkerCPUUtil()), hetPS, hetWk)
	}
	return []*Table{t}, nil
}

// figure2 reproduces Fig. 2: PS NIC throughput over time for the mnist
// DNN with BSP at 1-8 workers (summarized as a 10-point series plus the
// steady plateau).
func figure2(cfg Config) ([]*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	w, err := workload("mnist DNN")
	if err != nil {
		return nil, err
	}
	iters := cfg.iters(w.Iterations)
	t := &Table{
		ID:     "Figure 2",
		Title:  "PS NIC throughput over time (mnist DNN, BSP)",
		Header: []string{"workers", "steady(MB/s)", "peak(MB/s)", "series(MB/s, 10 samples)"},
	}
	for _, n := range []int{1, 2, 4, 8} {
		res, err := ddnnsim.Run(w, cloud.Homogeneous(m4, n, 1),
			ddnnsim.Options{Iterations: iters, TraceBin: 1, LossEvery: iters})
		if err != nil {
			return nil, err
		}
		s := res.PSNICSeries[0]
		t.AddRow(d(n), f1(s.SteadyRate(0.1, 0.1)), f1(s.Peak()), sampleSeries(s.Rates(), 10))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("NIC capacity %.0f MB/s; the paper observes a 70-90 MB/s plateau at 4-8 workers", m4.NetMBps))
	return []*Table{t}, nil
}

// sampleSeries downsamples a series to k points for textual display.
func sampleSeries(xs []float64, k int) string {
	if len(xs) == 0 {
		return "-"
	}
	if k > len(xs) {
		k = len(xs)
	}
	out := ""
	for i := 0; i < k; i++ {
		idx := i * len(xs) / k
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.0f", xs[idx])
	}
	return out
}

// figure3 reproduces Fig. 3: training-time breakdown for the cifar10 DNN
// with BSP at 9-17 workers.
func figure3(cfg Config) ([]*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	w, err := workload("cifar10 DNN")
	if err != nil {
		return nil, err
	}
	iters := cfg.iters(w.Iterations)
	t := &Table{
		ID:     "Figure 3",
		Title:  "Training time breakdown (cifar10 DNN, BSP)",
		Header: []string{"workers", "computation(s)", "communication(s)", "training(s)"},
	}
	for _, n := range []int{9, 11, 13, 15, 17} {
		res, err := ddnnsim.Run(w, cloud.Homogeneous(m4, n, 1), ddnnsim.Options{Iterations: iters, LossEvery: iters})
		if err != nil {
			return nil, err
		}
		t.AddRow(d(n), f1(res.ComputeTime), f1(res.CommTime), f1(res.TrainingTime))
	}
	t.Notes = append(t.Notes, "computation and communication overlap, so the components exceed the training time")
	return []*Table{t}, nil
}

// figure4 reproduces Fig. 4: loss curves and fitted Eq. (1) coefficients
// for the cifar10 DNN (BSP) and ResNet-32 (ASP).
func figure4(cfg Config) ([]*Table, error) {
	m4 := mustType(cloud.M4XLarge)
	var tables []*Table
	cases := []struct {
		id, title, workload string
		workers             []int
	}{
		{"Figure 4(a)", "Training loss of the cifar10 DNN with BSP", "cifar10 DNN", []int{2, 4, 8}},
		{"Figure 4(b)", "Training loss of ResNet-32 with ASP", "ResNet-32", []int{4, 9}},
	}
	for _, c := range cases {
		w, err := workload(c.workload)
		if err != nil {
			return nil, err
		}
		iters := cfg.iters(w.Iterations)
		t := &Table{ID: c.id, Title: c.title,
			Header: []string{"workers", "loss@25%", "loss@50%", "loss@100%", "fitted β0", "fitted β1", "R²"}}
		var pooled []loss.Point
		for _, n := range c.workers {
			res, err := ddnnsim.Run(w, cloud.Homogeneous(m4, n, 1),
				ddnnsim.Options{Iterations: iters, Seed: cfg.Seed + int64(n)})
			if err != nil {
				return nil, err
			}
			pts := loss.PointsFromResult(res, n)
			pooled = append(pooled, loss.Subsample(pts, 3)...)
			fit, r2, err := loss.Fit(w.Sync, pts)
			if err != nil {
				return nil, err
			}
			q := func(frac float64) float64 {
				idx := int(frac*float64(len(res.Loss))) - 1
				if idx < 0 {
					idx = 0
				}
				return res.Loss[idx].Loss
			}
			t.AddRow(d(n), f3(q(0.25)), f3(q(0.5)), f3(q(1.0)), f1(fit.Beta0), f3(fit.Beta1), f3(r2))
		}
		if fit, r2, err := loss.Fit(w.Sync, pooled); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("pooled fit: β0=%.1f β1=%.3f R²=%.3f (truth β0=%.1f β1=%.3f)",
				fit.Beta0, fit.Beta1, r2, w.Loss.Beta0, w.Loss.Beta1))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
