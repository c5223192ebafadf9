package perf

import (
	"math"
	"math/rand"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
)

func lookup(t *testing.T, name string) cloud.InstanceType {
	t.Helper()
	it, err := cloud.DefaultCatalog().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// syntheticProfile builds a Profile directly from workload ground truth,
// mimicking a noise-free profiling run on the given baseline.
func syntheticProfile(t *testing.T, name string, base cloud.InstanceType) *Profile {
	t.Helper()
	w, err := model.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return SyntheticProfile(w, base)
}

func TestProfileValidate(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	good := syntheticProfile(t, "mnist DNN", m4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	var nilP *Profile
	if err := nilP.Validate(); err == nil {
		t.Error("nil profile accepted")
	}
	bad := *good
	bad.WiterGFLOPs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero witer accepted")
	}
	bad2 := *good
	bad2.Base.GFLOPS = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero baseline capability accepted")
	}
}

func TestCynthiaIterTimeValidation(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	p := syntheticProfile(t, "mnist DNN", m4)
	var c Cynthia
	if _, err := c.IterTime(p, cloud.ClusterSpec{}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := c.TrainingTime(p, cloud.Homogeneous(m4, 2, 1), 0); err == nil {
		t.Error("zero iterations accepted")
	}
	if c.Name() != "Cynthia" {
		t.Errorf("name = %q", c.Name())
	}
}

func TestCynthiaBSPComputeBound(t *testing.T) {
	// ResNet-32 with BSP at small scale: no bottleneck, titer = tcomp.
	m4 := lookup(t, cloud.M4XLarge)
	w, _ := model.WorkloadByName("ResNet-32")
	p := SyntheticProfile(w.WithSync(model.BSP), m4)
	var c Cynthia
	got, err := c.IterTime(p, cloud.Homogeneous(m4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := p.WiterGFLOPs / (4 * m4.GFLOPS)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("titer = %v, want %v (compute-bound)", got, want)
	}
	if u := c.WorkerUtilization(p, cloud.Homogeneous(m4, 4, 1)); u != 1 {
		t.Errorf("utilization = %v, want 1 (no bottleneck)", u)
	}
}

func TestCynthiaBSPBottleneckThrottles(t *testing.T) {
	// mnist at 8 workers: PS-bound; predicted titer must exceed both the
	// raw compute and raw NIC times.
	m4 := lookup(t, cloud.M4XLarge)
	p := syntheticProfile(t, "mnist DNN", m4)
	var c Cynthia
	cluster := cloud.Homogeneous(m4, 8, 1)
	got, err := c.IterTime(p, cluster)
	if err != nil {
		t.Fatal(err)
	}
	tcomp := p.WiterGFLOPs / (8 * m4.GFLOPS)
	if got <= tcomp {
		t.Errorf("titer %v should exceed compute time %v under bottleneck", got, tcomp)
	}
	// The effective bandwidth must be capped below the raw NIC rate by
	// the PS CPU (cprof/bprof ratio).
	rawComm := 2 * p.GparamMB * 8 / m4.NetMBps
	if got <= rawComm {
		t.Errorf("titer %v should exceed raw NIC time %v (PS CPU cap)", got, rawComm)
	}
}

func TestCynthiaASPHarmonicMean(t *testing.T) {
	// Heterogeneous ASP: the mean iteration time is the harmonic mean of
	// per-worker times, so the training time lies between all-fast and
	// all-slow predictions.
	m4, m1 := lookup(t, cloud.M4XLarge), lookup(t, cloud.M1XLarge)
	p := syntheticProfile(t, "ResNet-32", m4)
	var c Cynthia
	fast, err := c.TrainingTime(p, cloud.Homogeneous(m4, 4, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.TrainingTime(p, cloud.Homogeneous(m1, 4, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := c.TrainingTime(p, cloud.Heterogeneous(m4, m1, 4, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !(fast < mixed && mixed < slow) {
		t.Errorf("fast %v < mixed %v < slow %v violated", fast, mixed, slow)
	}
}

func TestPredictionError(t *testing.T) {
	if got := PredictionError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("error = %v, want 0.1", got)
	}
	if got := PredictionError(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("error = %v, want 0.1", got)
	}
	if !math.IsInf(PredictionError(1, 0), 1) {
		t.Error("zero observed should give +Inf")
	}
}

// The headline accuracy claims: Cynthia predicts the simulator's observed
// training time within a few percent across the paper's Figs. 6, 8, 9, 10
// scenarios, including under PS bottlenecks and heterogeneity.
func TestCynthiaAccuracyAgainstSimulator(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	m1 := lookup(t, cloud.M1XLarge)
	r3 := lookup(t, cloud.R3XLarge)
	var c Cynthia

	cases := []struct {
		name     string
		workload string
		cluster  cloud.ClusterSpec
		iters    int
		tol      float64
	}{
		// Fig. 6(a): VGG-19 ASP, growing past the NIC saturation point.
		// ASP runs use >=30 iterations per worker so pipeline warmup and
		// drain stay a small fraction of the makespan.
		{"vgg-asp-7", "VGG-19", cloud.Homogeneous(m4, 7, 1), 210, 0.12},
		{"vgg-asp-9", "VGG-19", cloud.Homogeneous(m4, 9, 1), 270, 0.08},
		{"vgg-asp-12", "VGG-19", cloud.Homogeneous(m4, 12, 1), 360, 0.08},
		// Fig. 6(b): cifar10 BSP, compute bound.
		{"cifar-bsp-4", "cifar10 DNN", cloud.Homogeneous(m4, 4, 1), 60, 0.08},
		{"cifar-bsp-9", "cifar10 DNN", cloud.Homogeneous(m4, 9, 1), 60, 0.08},
		{"cifar-bsp-12", "cifar10 DNN", cloud.Homogeneous(m4, 12, 1), 60, 0.08},
		// Fig. 8: cross-instance prediction (profiled on m4, run on r3).
		{"vgg-asp-r3-9", "VGG-19", cloud.Homogeneous(r3, 9, 1), 270, 0.08},
		{"vgg-asp-r3-12", "VGG-19", cloud.Homogeneous(r3, 12, 1), 360, 0.12},
		// Fig. 9: heterogeneous clusters.
		{"resnet-asp-het-7", "ResNet-32", cloud.Heterogeneous(m4, m1, 7, 1), 210, 0.08},
		{"mnist-bsp-het-8", "mnist DNN", cloud.Heterogeneous(m4, m1, 8, 1), 300, 0.10},
		// Fig. 10: multiple PS nodes.
		{"mnist-bsp-8w-2ps", "mnist DNN", cloud.Homogeneous(m4, 8, 2), 300, 0.10},
		{"mnist-bsp-8w-4ps", "mnist DNN", cloud.Homogeneous(m4, 8, 4), 300, 0.10},
		{"resnet-asp-4w-2ps", "ResNet-32", cloud.Homogeneous(m4, 4, 2), 120, 0.08},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := syntheticProfile(t, tc.workload, m4) // always profiled on m4
			obs, err := ddnnsim.Run(p.Workload, tc.cluster, ddnnsim.Options{Iterations: tc.iters, LossEvery: tc.iters})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := c.TrainingTime(p, tc.cluster, tc.iters)
			if err != nil {
				t.Fatal(err)
			}
			if e := PredictionError(pred, obs.TrainingTime); e > tc.tol {
				t.Errorf("prediction error %.1f%% > %.0f%% (pred %.1f obs %.1f)",
					e*100, tc.tol*100, pred, obs.TrainingTime)
			}
		})
	}
}

func TestSyntheticProfileMatchesWorkload(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	w, _ := model.WorkloadByName("VGG-19")
	p := SyntheticProfile(w, m4)
	if p.WiterGFLOPs != w.WiterGFLOPs || p.GparamMB != w.GparamMB {
		t.Error("synthetic profile does not match workload ground truth")
	}
	if p.TBaseIter <= 0 || p.BprofMBps <= 0 {
		t.Errorf("synthetic PS measurements: %+v", p)
	}
	// cprof/bprof must encode the workload's PS CPU-per-MB ratio.
	if got := p.CprofGFLOPS / p.BprofMBps; math.Abs(got-w.PSCPUPerMB) > 1e-9 {
		t.Errorf("cprof/bprof = %v, want %v", got, w.PSCPUPerMB)
	}
}

// randType draws an instance type spanning compute-bound, NIC-bound and
// PS-CPU-bound regimes against the Table 1 workloads.
func randType(rng *rand.Rand) cloud.InstanceType {
	return cloud.InstanceType{
		Name:         "rand",
		GFLOPS:       0.5 + 60*rng.Float64(),
		NetMBps:      5 + 2000*rng.Float64(),
		PricePerHour: 0.01 + rng.Float64(),
	}
}

// TestPredictHomogeneousMatchesClusterSpec is the bit-identity contract
// of the planner's fast path: on random types, cluster sizes, iteration
// budgets and both sync modes, PredictHomogeneous returns exactly the
// float64 bits IterTime and TrainingTime compute on the materialised
// cloud.Homogeneous spec.
func TestPredictHomogeneousMatchesClusterSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var c Cynthia
	for _, w := range model.Workloads() {
		for _, sync := range []model.SyncMode{model.BSP, model.ASP} {
			for i := 0; i < 2000; i++ {
				p := SyntheticProfile(w.WithSync(sync), randType(rng))
				if i%10 == 0 {
					p.CprofGFLOPS = 0 // NIC-only effective bandwidth branch
				}
				typ := randType(rng)
				n, nps, iters := 1+rng.Intn(200), 1+rng.Intn(8), 1+rng.Intn(1_000_000)
				spec := cloud.Homogeneous(typ, n, nps)
				wantIter, err := c.IterTime(p, spec)
				if err != nil {
					t.Fatal(err)
				}
				wantTotal, err := c.TrainingTime(p, spec, iters)
				if err != nil {
					t.Fatal(err)
				}
				gotIter, gotTotal, err := c.PredictHomogeneous(p, typ, n, nps, iters)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gotIter) != math.Float64bits(wantIter) ||
					math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
					t.Fatalf("%s/%s %+v n=%d nps=%d iters=%d: fast (%v, %v) != spec (%v, %v)",
						w.Name, sync, typ, n, nps, iters, gotIter, gotTotal, wantIter, wantTotal)
				}
			}
		}
	}
}

// TestPredictHomogeneousErrors: the fast path rejects exactly what the
// ClusterSpec path rejects.
func TestPredictHomogeneousErrors(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	good := syntheticProfile(t, "mnist DNN", m4)
	noWork := *good
	noWork.WiterGFLOPs = 0
	var c Cynthia
	cases := []struct {
		name         string
		p            *Profile
		n, nps, iter int
	}{
		{"no workers", good, 0, 1, 10},
		{"negative workers", good, -3, 1, 10},
		{"no PS", good, 4, 0, 10},
		{"zero iterations", good, 4, 1, 0},
		{"negative iterations", good, 4, 1, -5},
		{"nil profile", nil, 4, 1, 10},
		{"invalid profile", &noWork, 4, 1, 10},
	}
	for _, tc := range cases {
		if _, _, err := c.PredictHomogeneous(tc.p, m4, tc.n, tc.nps, tc.iter); err == nil {
			t.Errorf("%s: PredictHomogeneous accepted", tc.name)
		}
		if _, err := c.TrainingTime(tc.p, cloud.Homogeneous(m4, tc.n, tc.nps), tc.iter); err == nil {
			t.Errorf("%s: TrainingTime accepted", tc.name)
		}
	}
}
