package ddnnsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

var (
	catalog = cloud.DefaultCatalog()
	m4      = mustType(cloud.M4XLarge)
	m1      = mustType(cloud.M1XLarge)
)

func mustType(name string) cloud.InstanceType {
	t, err := cloud.DefaultCatalog().Lookup(name)
	if err != nil {
		panic(err)
	}
	return t
}

func mustWorkload(t *testing.T, name string) *model.Workload {
	t.Helper()
	w, err := model.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func run(t *testing.T, w *model.Workload, cluster cloud.ClusterSpec, opt Options) *Result {
	t.Helper()
	res, err := Run(w, cluster, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	if _, err := Run(nil, cloud.Homogeneous(m4, 1, 1), Options{}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(w, cloud.Homogeneous(m4, 0, 1), Options{}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Run(w, cloud.Homogeneous(m4, 1, 0), Options{}); err == nil {
		t.Error("zero PS accepted")
	}
}

func TestSingleWorkerBSPMatchesAnalytic(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 1, 1), Options{Iterations: 50})
	// One worker, no contention: iteration time = max(comp, comm) in
	// steady state, with comp = witer/c, comm = push+pull with PS CPU
	// overlap per direction.
	comp := w.WiterGFLOPs / m4.GFLOPS
	perDir := math.Max(w.GparamMB/m4.NetMBps, w.GparamMB*w.PSCPUPerMB/m4.GFLOPS)
	comm := 2 * perDir
	want := math.Max(comp, comm)
	if got := res.MeanIterTime; math.Abs(got-want) > 0.15*want {
		t.Errorf("mean iter time = %v, want ~%v (comp %v comm %v)", got, want, comp, comm)
	}
	if res.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", res.Iterations)
	}
}

func TestSingleWorkerASPMatchesAnalytic(t *testing.T) {
	w := mustWorkload(t, "ResNet-32")
	res := run(t, w, cloud.Homogeneous(m4, 1, 1), Options{Iterations: 20})
	// ASP single worker: strictly sequential comp + comm.
	comp := w.WiterGFLOPs / m4.GFLOPS
	perDir := math.Max(w.GparamMB/m4.NetMBps, w.GparamMB*w.PSCPUPerMB/m4.GFLOPS)
	want := comp + 2*perDir
	if got := res.MeanIterTime; math.Abs(got-want) > 0.05*want {
		t.Errorf("mean iter time = %v, want ~%v", got, want)
	}
}

func TestBSPComputeScalesDown(t *testing.T) {
	// ResNet-32 with BSP is compute-bound; doubling workers should nearly
	// halve training time.
	w := mustWorkload(t, "ResNet-32").WithSync(model.BSP)
	t2 := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 30}).TrainingTime
	t4 := run(t, w, cloud.Homogeneous(m4, 4, 1), Options{Iterations: 30}).TrainingTime
	ratio := t2 / t4
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("2->4 worker speedup = %.2f, want ~2 (compute bound)", ratio)
	}
}

// The paper's Fig. 1(b): mnist DNN with BSP first speeds up, then slows
// down as the PS becomes the bottleneck — a U-shaped curve with the best
// point around 4 workers.
func TestFigure1bMnistUShape(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	times := map[int]float64{}
	for _, n := range []int{1, 2, 4, 8} {
		times[n] = run(t, w, cloud.Homogeneous(m4, n, 1), Options{Iterations: 300}).TrainingTime
	}
	if !(times[2] < times[1]) {
		t.Errorf("1->2 workers should speed up: %v", times)
	}
	if !(times[8] > times[4]) {
		t.Errorf("4->8 workers should slow down (PS bottleneck): %v", times)
	}
	if !(times[8] > times[2]) {
		t.Errorf("8 workers should be slower than 2: %v", times)
	}
}

// The paper's Table 2: as workers grow, the PS CPU saturates and worker
// CPU utilization collapses.
func TestTable2UtilizationShape(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	utilAt := func(n int) (worker, ps float64) {
		res := run(t, w, cloud.Homogeneous(m4, n, 1), Options{Iterations: 300})
		return res.MeanWorkerCPUUtil(), res.PSCPUUtil[0]
	}
	w1, _ := utilAt(1)
	w2, _ := utilAt(2)
	w4, p4 := utilAt(4)
	w8, p8 := utilAt(8)
	if w1 < 0.9 || w2 < 0.9 {
		t.Errorf("1-2 workers should be ~fully utilized: %v %v", w1, w2)
	}
	if w4 > 0.9 {
		t.Errorf("4-worker utilization = %v, want throttled (<0.9)", w4)
	}
	if w8 > 0.45 {
		t.Errorf("8-worker utilization = %v, want collapsed (<0.45)", w8)
	}
	if p4 < 0.8 || p8 < 0.8 {
		t.Errorf("PS CPU should saturate at 4+ workers: %v %v", p4, p8)
	}
	if !(w1 > w4 && w4 > w8) {
		t.Errorf("worker utilization should fall with scale: %v %v %v", w1, w4, w8)
	}
}

// The paper's Fig. 2: PS NIC throughput grows with workers and plateaus
// (70-90 MB/s on the m4 testbed) once the PS bottlenecks.
func TestFigure2ThroughputPlateau(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	steady := func(n int) float64 {
		res := run(t, w, cloud.Homogeneous(m4, n, 1), Options{Iterations: 300, TraceBin: 1})
		return res.PSNICSeries[0].SteadyRate(0.1, 0.1)
	}
	s1, s4, s8 := steady(1), steady(4), steady(8)
	if !(s4 > 2*s1) {
		t.Errorf("throughput should grow 1->4 workers: %v -> %v", s1, s4)
	}
	// Plateau: 4->8 changes little and stays below NIC capacity (the PS
	// CPU is the binding constraint, as the paper observes when granting
	// the PS more cores does not help).
	if rel := math.Abs(s8-s4) / s4; rel > 0.25 {
		t.Errorf("throughput should plateau 4->8: %v -> %v", s4, s8)
	}
	if s8 > m4.NetMBps {
		t.Errorf("throughput %v exceeds NIC capacity %v", s8, m4.NetMBps)
	}
	if s8 < 0.5*m4.NetMBps {
		t.Errorf("plateau %v too low; want near-saturation of %v", s8, m4.NetMBps)
	}
}

// The paper's Fig. 3: for cifar10 DNN with BSP, computation time falls and
// communication time grows with the worker count, crossing near 13-16.
func TestFigure3BreakdownCrossover(t *testing.T) {
	w := mustWorkload(t, "cifar10 DNN")
	comp := map[int]float64{}
	comm := map[int]float64{}
	for _, n := range []int{9, 13, 17} {
		res := run(t, w, cloud.Homogeneous(m4, n, 1), Options{Iterations: 100})
		comp[n], comm[n] = res.ComputeTime, res.CommTime
	}
	if !(comp[9] > comp[17]) {
		t.Errorf("computation should shrink with workers: %v", comp)
	}
	if !(comm[17] > comm[9]) {
		t.Errorf("communication should grow with workers: %v", comm)
	}
	if !(comp[9] > comm[9]) {
		t.Errorf("at 9 workers computation should dominate: comp %v comm %v", comp[9], comm[9])
	}
	if !(comm[17] > comp[17]*0.8) {
		t.Errorf("at 17 workers communication should catch up: comp %v comm %v", comp[17], comm[17])
	}
}

// The paper's Fig. 1 heterogeneity result: stragglers inflate BSP training
// time substantially at small scale.
func TestHeterogeneousStragglersSlowBSP(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	homo := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 200}).TrainingTime
	hetero := run(t, w, cloud.Heterogeneous(m4, m1, 2, 1), Options{Iterations: 200}).TrainingTime
	slowdown := hetero / homo
	if slowdown < 1.4 || slowdown > 2.2 {
		t.Errorf("straggler slowdown = %.2f, want ~1.9 (paper: up to 84%%)", slowdown)
	}
}

func TestHeterogeneousASPFasterWorkersDoMore(t *testing.T) {
	w := mustWorkload(t, "ResNet-32")
	res := run(t, w, cloud.Heterogeneous(m4, m1, 4, 1), Options{Iterations: 40})
	// Workers 0,1 are m4 (fast), workers 2,3 are m1 (slow).
	fast := res.PerWorkerIterations[0] + res.PerWorkerIterations[1]
	slow := res.PerWorkerIterations[2] + res.PerWorkerIterations[3]
	if fast <= slow {
		t.Errorf("fast workers did %d iterations, slow %d; want fast > slow", fast, slow)
	}
	total := 0
	for _, c := range res.PerWorkerIterations {
		total += c
	}
	if total != 40 {
		t.Errorf("total iterations = %d, want 40", total)
	}
}

// VGG-19 ASP saturates the PS NIC around 9+ workers (Figs. 6(a), 7).
func TestVGGNICSaturation(t *testing.T) {
	w := mustWorkload(t, "VGG-19")
	util := func(n int) float64 {
		res := run(t, w, cloud.Homogeneous(m4, n, 1), Options{Iterations: 5 * n})
		return res.PSNICUtil[0]
	}
	u4 := util(4)
	u12 := util(12)
	if u4 > 0.75 {
		t.Errorf("NIC util at 4 workers = %v, want unsaturated", u4)
	}
	if u12 < 0.85 {
		t.Errorf("NIC util at 12 workers = %v, want saturated", u12)
	}
}

// Multiple PS nodes relieve the PS bottleneck for the mnist DNN
// (Fig. 10(b)) but barely help compute-bound ResNet-32 (Fig. 10(a)).
func TestMultiPSRelievesBottleneck(t *testing.T) {
	mnist := mustWorkload(t, "mnist DNN")
	t1 := run(t, mnist, cloud.Homogeneous(m4, 8, 1), Options{Iterations: 200}).TrainingTime
	t4 := run(t, mnist, cloud.Homogeneous(m4, 8, 4), Options{Iterations: 200}).TrainingTime
	if speedup := t1 / t4; speedup < 1.5 {
		t.Errorf("4 PS speedup for mnist = %.2f, want > 1.5", speedup)
	}

	resnet := mustWorkload(t, "ResNet-32")
	r1 := run(t, resnet, cloud.Homogeneous(m4, 4, 1), Options{Iterations: 40}).TrainingTime
	r2 := run(t, resnet, cloud.Homogeneous(m4, 4, 2), Options{Iterations: 40}).TrainingTime
	if rel := math.Abs(r1-r2) / r1; rel > 0.1 {
		t.Errorf("extra PS changed ResNet time by %.0f%%, want < 10%%", rel*100)
	}
}

func TestLossCurveProperties(t *testing.T) {
	w := mustWorkload(t, "cifar10 DNN")
	res := run(t, w, cloud.Homogeneous(m4, 4, 1), Options{Iterations: 500, Seed: 1})
	if len(res.Loss) != 500 {
		t.Fatalf("loss points = %d, want 500", len(res.Loss))
	}
	first, last := res.Loss[0], res.Loss[len(res.Loss)-1]
	if first.Loss < last.Loss {
		t.Errorf("loss should decrease: %v -> %v", first.Loss, last.Loss)
	}
	if last.Loss < w.Loss.Beta1*0.8 {
		t.Errorf("loss %v fell below plausible asymptote %v", last.Loss, w.Loss.Beta1)
	}
	for i := 1; i < len(res.Loss); i++ {
		if res.Loss[i].Time < res.Loss[i-1].Time {
			t.Fatalf("loss timestamps not monotone at %d", i)
		}
	}
	if res.FinalLoss != last.Loss {
		t.Errorf("FinalLoss = %v, want %v", res.FinalLoss, last.Loss)
	}
}

func TestLossCurveDeterministicBySeed(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	a := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 100, Seed: 7})
	b := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 100, Seed: 7})
	c := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 100, Seed: 8})
	if len(a.Loss) != len(b.Loss) {
		t.Fatal("lengths differ")
	}
	differ := false
	for i := range a.Loss {
		if a.Loss[i] != b.Loss[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a.Loss[i].Loss != c.Loss[i].Loss {
			differ = true
		}
	}
	if !differ {
		t.Error("different seeds produced identical noise")
	}
	if a.TrainingTime != b.TrainingTime {
		t.Error("same seed produced different training time")
	}
}

func TestASPLossSlowerWithMoreWorkers(t *testing.T) {
	w := mustWorkload(t, "ResNet-32")
	l4 := run(t, w, cloud.Homogeneous(m4, 4, 1), Options{Iterations: 100, Seed: 3}).FinalLoss
	l9 := run(t, w, cloud.Homogeneous(m4, 9, 1), Options{Iterations: 100, Seed: 3}).FinalLoss
	if l9 <= l4 {
		t.Errorf("ASP loss at 100 iters: n=9 (%v) should exceed n=4 (%v)", l9, l4)
	}
}

func TestLossEverySubsampling(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 1, 1), Options{Iterations: 100, LossEvery: 10})
	if len(res.Loss) != 10 {
		t.Errorf("loss points = %d, want 10", len(res.Loss))
	}
	if res.Loss[0].Iter != 10 || res.Loss[9].Iter != 100 {
		t.Errorf("subsampled iters = %d..%d", res.Loss[0].Iter, res.Loss[9].Iter)
	}
}

func TestClusterSpecHelpers(t *testing.T) {
	h := cloud.Homogeneous(m4, 5, 2)
	if h.NumWorkers() != 5 || h.NumPS() != 2 {
		t.Errorf("homogeneous spec = %d/%d", h.NumWorkers(), h.NumPS())
	}
	het := cloud.Heterogeneous(m4, m1, 5, 1)
	fast, slow := 0, 0
	for _, w := range het.Workers {
		if w.Name == cloud.M4XLarge {
			fast++
		} else {
			slow++
		}
	}
	if fast != 3 || slow != 2 {
		t.Errorf("heterogeneous split = %d fast / %d slow, want 3/2", fast, slow)
	}
	if het.PS[0].Name != cloud.M4XLarge {
		t.Errorf("PS should be the fast type, got %s", het.PS[0].Name)
	}
}

func TestBSPIterationAccounting(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 3, 1), Options{Iterations: 50})
	for j, c := range res.PerWorkerIterations {
		if c != 50 {
			t.Errorf("worker %d executed %d rounds, want 50", j, c)
		}
	}
	if res.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", res.Iterations)
	}
}

// simRun returns the body the simulator benchmarks time and
// TestSimAllocCeilings bounds: workload trained for 100 iterations on a
// homogeneous m4 cluster, with the workload lookup hoisted out.
func simRun(tb testing.TB, workload string, workers, ps int) func() {
	tb.Helper()
	w, err := model.WorkloadByName(workload)
	if err != nil {
		tb.Fatal(err)
	}
	spec := cloud.Homogeneous(m4, workers, ps)
	return func() {
		if _, err := Run(w, spec, Options{Iterations: 100}); err != nil {
			tb.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestSimAllocCeilings bounds the allocations of whole simulator runs.
// Each ceiling is the allocs/op measured when it was set, plus 0.1% + 0.5
// slack for map and slice-growth jitter, so a rise fails and a fall
// passes; lower a ceiling when a change lowers the count.
func TestSimAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are randomized under the race detector (see race_test.go)")
	}
	for _, tc := range []struct {
		name        string
		workload    string
		workers, ps int
		measured    float64
	}{
		{"BSPRound", "mnist DNN", 8, 1, 225},
		{"ASPRound", "ResNet-32", 8, 1, 130},
		{"LargeClusterIterations", "ResNet-32", 64, 8, 959},
	} {
		allocs := testing.AllocsPerRun(3, simRun(t, tc.workload, tc.workers, tc.ps))
		ceiling := tc.measured*1.001 + 0.5
		t.Logf("%s: %.0f allocs per run, ceiling %.1f", tc.name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s allocates %.0f per run, above its ceiling %.1f", tc.name, allocs, ceiling)
		}
	}
}

// TestSimIterationsAllocateNothing pins the steady state: once a sim's
// flow, transfer and round records are warm, more iterations cost no
// allocations. Each run differs from the shorter one by 1200 iterations,
// so even one allocation per iteration would show as 1200; the slack of
// 10 absorbs a free list that grows at a rare concurrency peak and fmt's
// printer cache, which a GC may empty while the sim names its resources.
func TestSimIterationsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are randomized under the race detector (see race_test.go)")
	}
	for _, tc := range []struct{ name, workload string }{
		{"BSP", "mnist DNN"},
		{"ASP", "ResNet-32"},
	} {
		w := mustWorkload(t, tc.workload)
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(w, cloud.Homogeneous(m4, 8, 1), Options{Iterations: iters, LossEvery: iters}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(400), allocs(1600)
		t.Logf("%s: %.0f allocs for 400 iterations, %.0f for 1600", tc.name, short, long)
		if long-short > 10 {
			t.Errorf("%s: 1200 more iterations cost %.0f more allocations, want none", tc.name, long-short)
		}
	}
}

func BenchmarkBSPRound(b *testing.B) {
	run := simRun(b, "mnist DNN", 8, 1)
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkASPRound(b *testing.B) {
	run := simRun(b, "ResNet-32", 8, 1)
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkLargeClusterIterations times a 64-worker / 8-PS cluster
// trained for 100 iterations per op, reported as simulated training
// iterations per wall-clock second, so event-core or allocator
// regressions anywhere in the engine -> ddnnsim stack show up here even
// if no micro-benchmark moves.
func BenchmarkLargeClusterIterations(b *testing.B) {
	run := simRun(b, "ResNet-32", 64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(100*float64(b.N)/b.Elapsed().Seconds(), "iters/s")
}

// BenchmarkJobsWideShapes times the clusters the end-to-end job workloads
// plan (cifar10 at 18x2 and 22x3, ResNet-32 ASP at 16x1, mnist at 2x1),
// each at the iteration count of its planned job, reported as simulated
// iterations per wall-clock second. It is a developer tool for the
// simulator's share of a job, not a gate.
func BenchmarkJobsWideShapes(b *testing.B) {
	for _, tc := range []struct {
		workload           string
		workers, ps, iters int
	}{
		{"cifar10 DNN", 18, 2, 889},
		{"cifar10 DNN", 22, 3, 889},
		{"ResNet-32", 16, 1, 3750},
		{"mnist DNN", 2, 1, 1800},
	} {
		w, err := model.WorkloadByName(tc.workload)
		if err != nil {
			b.Fatal(err)
		}
		spec := cloud.Homogeneous(m4, tc.workers, tc.ps)
		b.Run(fmt.Sprintf("%s/%dx%d", strings.Fields(tc.workload)[0], tc.workers, tc.ps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(w, spec, Options{Iterations: tc.iters, LossEvery: tc.iters}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tc.iters)*float64(b.N)/b.Elapsed().Seconds(), "iters/s")
		})
	}
}

var _ = catalog // keep the package-level catalog referenced

func TestNoOverlapSlowsBSP(t *testing.T) {
	// cifar10 at 12 workers has comparable computation and communication,
	// so removing the overlap should inflate training time toward
	// tcomp + tcomm.
	w := mustWorkload(t, "cifar10 DNN")
	const iters = 100
	overlapped := run(t, w, cloud.Homogeneous(m4, 12, 1), Options{Iterations: iters}).TrainingTime
	serial := run(t, w, cloud.Homogeneous(m4, 12, 1), Options{Iterations: iters, NoOverlap: true}).TrainingTime
	if serial <= overlapped*1.2 {
		t.Errorf("no-overlap %v should clearly exceed overlapped %v", serial, overlapped)
	}
	// The serial time should approach the analytic sum.
	tcomp := w.WiterGFLOPs / (12 * m4.GFLOPS)
	tcomm := 2 * w.GparamMB * 12 / m4.NetMBps
	want := float64(iters) * (tcomp + tcomm)
	if rel := math.Abs(serial-want) / want; rel > 0.10 {
		t.Errorf("no-overlap time %v, analytic sum %v (%.1f%% off)", serial, want, rel*100)
	}
}

func TestNoOverlapMatchesPaleoModel(t *testing.T) {
	// The point of the ablation: Paleo's unoverlapped model is accurate
	// for an unoverlapped system.
	w := mustWorkload(t, "cifar10 DNN")
	const iters = 100
	serial := run(t, w, cloud.Homogeneous(m4, 12, 1), Options{Iterations: iters, NoOverlap: true}).TrainingTime
	tcomp := w.WiterGFLOPs / (12 * m4.GFLOPS)
	tcomm := 2 * w.GparamMB * 12 / m4.NetMBps
	paleoLike := float64(iters) * (tcomp + tcomm)
	if rel := math.Abs(serial-paleoLike) / serial; rel > 0.10 {
		t.Errorf("Paleo-style sum errs %.1f%% on a non-overlapped system, want < 10%%", rel*100)
	}
}

func TestIterRecordsBSP(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 3, 1), Options{Iterations: 40, RecordIterations: true})
	if len(res.IterRecords) != 40 {
		t.Fatalf("records = %d, want 40", len(res.IterRecords))
	}
	var compSum, commSum float64
	for i, r := range res.IterRecords {
		if r.Index != i || r.Worker != -1 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		if r.ComputeSec <= 0 || r.CommSec <= 0 || r.EndSec <= 0 {
			t.Fatalf("record %d non-positive timings: %+v", i, r)
		}
		if i > 0 && r.EndSec < res.IterRecords[i-1].EndSec {
			t.Fatalf("record %d out of order", i)
		}
		compSum += r.ComputeSec
		commSum += r.CommSec
	}
	// Records must sum to the aggregate breakdown.
	if math.Abs(compSum-res.ComputeTime) > 1e-9*(1+compSum) {
		t.Errorf("record comp sum %v != aggregate %v", compSum, res.ComputeTime)
	}
	if math.Abs(commSum-res.CommTime) > 1e-9*(1+commSum) {
		t.Errorf("record comm sum %v != aggregate %v", commSum, res.CommTime)
	}
	if res.IterRecords[39].EndSec > res.TrainingTime+1e-9 {
		t.Error("record past end of training")
	}
}

func TestIterRecordsASP(t *testing.T) {
	w := mustWorkload(t, "ResNet-32")
	res := run(t, w, cloud.Homogeneous(m4, 3, 1), Options{Iterations: 30, RecordIterations: true})
	if len(res.IterRecords) != 30 {
		t.Fatalf("records = %d", len(res.IterRecords))
	}
	workers := map[int]int{}
	for _, r := range res.IterRecords {
		if r.Worker < 0 || r.Worker >= 3 {
			t.Fatalf("bad worker %d", r.Worker)
		}
		workers[r.Worker]++
	}
	for j := 0; j < 3; j++ {
		if workers[j] != res.PerWorkerIterations[j] {
			t.Errorf("worker %d: %d records vs %d iterations", j, workers[j], res.PerWorkerIterations[j])
		}
	}
}

func TestIterRecordsOffByDefault(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 10})
	if len(res.IterRecords) != 0 {
		t.Errorf("records captured without opt-in: %d", len(res.IterRecords))
	}
}
