package baseline

import (
	"math"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/perf"
)

func lookup(t *testing.T, name string) cloud.InstanceType {
	t.Helper()
	it, err := cloud.DefaultCatalog().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func prof(t *testing.T, name string, base cloud.InstanceType) *perf.Profile {
	t.Helper()
	w, err := model.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return perf.SyntheticProfile(w, base)
}

func TestPaleoName(t *testing.T) {
	if (Paleo{}).Name() != "Paleo" {
		t.Error("wrong name")
	}
}

func TestPaleoBSPNoOverlap(t *testing.T) {
	// Paleo must predict tcomp + tcomm, which exceeds the overlapped
	// max(tcomp, tcomm) whenever both terms are nonzero.
	m4 := lookup(t, cloud.M4XLarge)
	p := prof(t, "cifar10 DNN", m4)
	cluster := cloud.Homogeneous(m4, 12, 1)
	paleoT, err := Paleo{}.IterTime(p, cluster)
	if err != nil {
		t.Fatal(err)
	}
	cynthiaT, err := perf.Cynthia{}.IterTime(p, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if paleoT <= cynthiaT {
		t.Errorf("Paleo %v should exceed overlapped Cynthia %v for BSP", paleoT, cynthiaT)
	}
	tcomp := p.WiterGFLOPs / (12 * m4.GFLOPS)
	tcomm := 2 * p.GparamMB * 12 / m4.NetMBps
	if math.Abs(paleoT-(tcomp+tcomm)) > 1e-9 {
		t.Errorf("Paleo = %v, want %v", paleoT, tcomp+tcomm)
	}
}

func TestPaleoUsesLayerGraph(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	p := prof(t, "VGG-19", m4)
	// Corrupt the profiled witer; Paleo should be unaffected because it
	// derives work from the layer graph.
	p.WiterGFLOPs *= 10
	cluster := cloud.Homogeneous(m4, 2, 1)
	got, err := Paleo{}.IterTime(p, cluster)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Workload
	want := w.Net.IterGFLOPs(w.Batch)/m4.GFLOPS + 2*w.Net.ParamMB()/m4.NetMBps
	// ASP mean over homogeneous workers equals the single-worker time.
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Paleo = %v, want %v (layer-derived)", got, want)
	}
}

func TestPaleoValidation(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	p := prof(t, "VGG-19", m4)
	if _, err := (Paleo{}).IterTime(p, cloud.ClusterSpec{}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := (Paleo{}).TrainingTime(p, cloud.Homogeneous(m4, 1, 1), 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestOptimusFitValidation(t *testing.T) {
	if _, err := FitOptimus(model.BSP, 3, nil); err == nil {
		t.Error("no samples accepted")
	}
	bad := []Sample{{1, 1, 1}, {2, 1, 0}, {3, 1, 1}}
	if _, err := FitOptimus(model.BSP, 3, bad); err == nil {
		t.Error("non-positive sample accepted")
	}
	good := []Sample{{1, 1, 2}, {2, 1, 1.5}, {4, 1, 1.2}}
	if _, err := FitOptimus(model.BSP, 0, good); err == nil {
		t.Error("zero capability accepted")
	}
}

func TestOptimusRecoversSyntheticBSPModel(t *testing.T) {
	// Generate samples from a known ground truth and check recovery.
	truth := func(n, p float64) float64 { return 4/n + 0.1*n/p + 0.05 }
	var samples []Sample
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		samples = append(samples, Sample{Workers: n, PS: 1, IterTime: truth(float64(n), 1)})
	}
	o, err := FitOptimus(model.BSP, 3.0, samples)
	if err != nil {
		t.Fatal(err)
	}
	th := o.theta
	if math.Abs(th[0]-4) > 1e-6 || math.Abs(th[1]-0.1) > 1e-6 || math.Abs(th[2]-0.05) > 1e-6 {
		t.Errorf("theta = %v, want [4 0.1 0.05]", th)
	}
}

func TestOptimusSyncModeMismatch(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	samples := []Sample{{1, 1, 2}, {2, 1, 1.5}, {4, 1, 1.2}}
	o, err := FitOptimus(model.BSP, m4.GFLOPS, samples)
	if err != nil {
		t.Fatal(err)
	}
	p := prof(t, "VGG-19", m4) // ASP workload
	if _, err := o.IterTime(p, cloud.Homogeneous(m4, 2, 1)); err == nil {
		t.Error("sync-mode mismatch accepted")
	}
}

func TestOptimusInterpolatesWellExtrapolatesPoorly(t *testing.T) {
	// Fit on 1-4 workers, then compare against the simulator inside and
	// beyond the sampled regime for VGG-19 ASP (paper Fig. 6(a)).
	m4 := lookup(t, cloud.M4XLarge)
	w, _ := model.WorkloadByName("VGG-19")
	o, err := FitFromSimulator(w, m4)
	if err != nil {
		t.Fatal(err)
	}
	p := perf.SyntheticProfile(w, m4)

	observe := func(n int) float64 {
		res, err := ddnnsim.Run(w, cloud.Homogeneous(m4, n, 1), ddnnsim.Options{Iterations: 30 * n, LossEvery: 30 * n})
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainingTime
	}
	predict := func(n int) float64 {
		v, err := o.TrainingTime(p, cloud.Homogeneous(m4, n, 1), 30*n)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Interpolation: 3 workers, inside the sampled range.
	if e := perf.PredictionError(predict(3), observe(3)); e > 0.10 {
		t.Errorf("interpolation error %.1f%% > 10%%", e*100)
	}
	// Extrapolation into the NIC-saturated regime: the fit must
	// underpredict substantially (the paper's 27.9% at 12 workers).
	obs12 := observe(12)
	pred12 := predict(12)
	if pred12 >= obs12 {
		t.Errorf("Optimus at 12 workers should underpredict: pred %v obs %v", pred12, obs12)
	}
	if e := perf.PredictionError(pred12, obs12); e < 0.10 {
		t.Errorf("Optimus extrapolation error %.1f%%, want > 10%% (bottleneck-blind)", e*100)
	}
}

// The paper's central comparison (Fig. 6): once the PS bottlenecks,
// Cynthia's prediction error stays well below Optimus's and Paleo's.
func TestFigure6RelativeAccuracy(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	w, _ := model.WorkloadByName("VGG-19")
	p := perf.SyntheticProfile(w, m4)
	o, err := FitFromSimulator(w, m4)
	if err != nil {
		t.Fatal(err)
	}
	cluster := cloud.Homogeneous(m4, 12, 1)
	iters := 360
	res, err := ddnnsim.Run(w, cluster, ddnnsim.Options{Iterations: iters, LossEvery: iters})
	if err != nil {
		t.Fatal(err)
	}
	obs := res.TrainingTime

	errOf := func(pred perf.Predictor) float64 {
		v, err := pred.TrainingTime(p, cluster, iters)
		if err != nil {
			t.Fatal(err)
		}
		return perf.PredictionError(v, obs)
	}
	cynthiaErr := errOf(perf.Cynthia{})
	optimusErr := errOf(o)
	paleoErr := errOf(Paleo{})
	if cynthiaErr >= optimusErr {
		t.Errorf("Cynthia error %.1f%% should beat Optimus %.1f%%", cynthiaErr*100, optimusErr*100)
	}
	if cynthiaErr >= paleoErr {
		t.Errorf("Cynthia error %.1f%% should beat Paleo %.1f%%", cynthiaErr*100, paleoErr*100)
	}
	if cynthiaErr > 0.10 {
		t.Errorf("Cynthia error %.1f%% too large", cynthiaErr*100)
	}
}

func TestCollectSamplesASPDepth(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	w, _ := model.WorkloadByName("ResNet-32")
	samples, err := CollectSamples(w, m4, []int{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	// Per-worker ASP iteration times at 1 and 2 workers should be close
	// (no bottleneck for ResNet at this scale).
	if rel := math.Abs(samples[0].IterTime-samples[1].IterTime) / samples[0].IterTime; rel > 0.1 {
		t.Errorf("per-worker iteration times diverge: %+v", samples)
	}
}

func TestOptimusSpeedScaling(t *testing.T) {
	// Fitted on m4 samples, predicting for a slower homogeneous cluster
	// must inflate the compute term.
	m4 := lookup(t, cloud.M4XLarge)
	m1 := lookup(t, cloud.M1XLarge)
	w, _ := model.WorkloadByName("cifar10 DNN")
	o, err := FitFromSimulator(w, m4)
	if err != nil {
		t.Fatal(err)
	}
	p := perf.SyntheticProfile(w, m4)
	fast, err := o.IterTime(p, cloud.Homogeneous(m4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := o.IterTime(p, cloud.Homogeneous(m1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Errorf("slow cluster prediction %v should exceed fast %v", slow, fast)
	}
}
