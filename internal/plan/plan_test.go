package plan

import (
	"math"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/perf"
)

func lookup(t testing.TB, name string) cloud.InstanceType {
	t.Helper()
	it, err := cloud.DefaultCatalog().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func prof(t testing.TB, name string) *perf.Profile {
	t.Helper()
	w, err := model.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return perf.SyntheticProfile(w, lookup(t, cloud.M4XLarge))
}

func m4Only(t *testing.T) *cloud.Catalog {
	t.Helper()
	c, err := cloud.NewCatalog(lookup(t, cloud.M4XLarge))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGoalValidation(t *testing.T) {
	if err := (Goal{TimeSec: 0, LossTarget: 0.5}).Validate(); err == nil {
		t.Error("zero time accepted")
	}
	if err := (Goal{TimeSec: 100, LossTarget: 0}).Validate(); err == nil {
		t.Error("zero loss accepted")
	}
	if err := (Goal{TimeSec: 100, LossTarget: 0.5}).Validate(); err != nil {
		t.Errorf("valid goal rejected: %v", err)
	}
}

// TestGoalRejectsNonFinite: NaN compares false with everything, so a
// "<= 0" check lets a NaN deadline through to a best-effort plan; ±Inf is
// no deadline or loss target either. Validate, and every search entry
// point behind it, must reject all of them.
func TestGoalRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, g := range []Goal{
		{TimeSec: nan, LossTarget: 0.8},
		{TimeSec: inf, LossTarget: 0.8},
		{TimeSec: -inf, LossTarget: 0.8},
		{TimeSec: 3600, LossTarget: nan},
		{TimeSec: 3600, LossTarget: inf},
		{TimeSec: 3600, LossTarget: -inf},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", g)
		}
		if pl, err := Provision(Request{Profile: prof(t, "cifar10 DNN"), Goal: g}); err == nil {
			t.Errorf("Provision accepted %+v and planned %v", g, pl)
		}
	}
}

func TestMaxRatioShrinksWithPSLoad(t *testing.T) {
	m4 := lookup(t, cloud.M4XLarge)
	light := prof(t, "ResNet-32") // tiny PS footprint
	heavy := prof(t, "VGG-19")    // giant parameter traffic
	if rl, rh := MaxRatio(light, m4), MaxRatio(heavy, m4); rl <= rh {
		t.Errorf("ratio for light PS load (%.1f) should exceed heavy (%.1f)", rl, rh)
	}
}

func TestComputeBoundsBSP(t *testing.T) {
	p := prof(t, "cifar10 DNN")
	m4 := lookup(t, cloud.M4XLarge)
	goal := Goal{TimeSec: 5400, LossTarget: 0.8}
	b, err := ComputeBounds(p, m4, goal)
	if err != nil {
		t.Fatal(err)
	}
	// s = ceil(1200/0.55) = 2182; nlower = ceil(witer*s/(Tg*cwk)).
	wantS := 2182
	if b.Iterations != wantS {
		t.Errorf("iterations = %d, want %d", b.Iterations, wantS)
	}
	wantLower := int(math.Ceil(p.WiterGFLOPs * float64(wantS) / (5400 * m4.GFLOPS)))
	if b.LowerWorkers != wantLower {
		t.Errorf("lower = %d, want %d", b.LowerWorkers, wantLower)
	}
	if b.UpperWorkers < b.LowerWorkers {
		t.Errorf("upper %d < lower %d", b.UpperWorkers, b.LowerWorkers)
	}
	if b.PS != 1 {
		t.Errorf("PS = %d, want 1 for a loose goal", b.PS)
	}
	// The upper bound is capped by the compute/communication balance
	// point (~16 workers for cifar10 on m4).
	if b.UpperWorkers > 20 {
		t.Errorf("upper = %d, want <= balance point", b.UpperWorkers)
	}
}

func TestComputeBoundsTighterGoalNeedsMoreWorkers(t *testing.T) {
	p := prof(t, "cifar10 DNN")
	m4 := lookup(t, cloud.M4XLarge)
	loose, err := ComputeBounds(p, m4, Goal{TimeSec: 10800, LossTarget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ComputeBounds(p, m4, Goal{TimeSec: 3600, LossTarget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if tight.LowerWorkers <= loose.LowerWorkers {
		t.Errorf("tight goal lower bound %d should exceed loose %d",
			tight.LowerWorkers, loose.LowerWorkers)
	}
}

func TestComputeBoundsASP(t *testing.T) {
	p := prof(t, "VGG-19")
	m4 := lookup(t, cloud.M4XLarge)
	b, err := ComputeBounds(p, m4, Goal{TimeSec: 3600, LossTarget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if b.LowerWorkers < 1 || b.UpperWorkers < b.LowerWorkers || b.PS < 1 {
		t.Errorf("bad bounds %+v", b)
	}
	if b.Ratio <= 1 {
		t.Errorf("ratio = %.2f, want > 1", b.Ratio)
	}
}

func TestComputeBoundsUnreachableLoss(t *testing.T) {
	p := prof(t, "VGG-19") // β1 = 0.45
	m4 := lookup(t, cloud.M4XLarge)
	if _, err := ComputeBounds(p, m4, Goal{TimeSec: 3600, LossTarget: 0.3}); err == nil {
		t.Error("unreachable loss accepted")
	}
}

func TestProvisionValidation(t *testing.T) {
	if _, err := Provision(Request{}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Provision(Request{Profile: prof(t, "cifar10 DNN")}); err == nil {
		t.Error("zero goal accepted")
	}
}

// Figure 11 regime: cifar10 BSP deadlines on an m4-only catalog. The plan
// must meet the goal when simulated and use more workers for tighter
// deadlines.
func TestFigure11CifarDeadlines(t *testing.T) {
	p := prof(t, "cifar10 DNN")
	cat := m4Only(t)
	var prevWorkers int
	for i, tg := range []float64{10800, 7200, 5400} {
		goal := Goal{TimeSec: tg, LossTarget: 0.8}
		pl, err := Provision(Request{Profile: p, Goal: goal, Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Feasible {
			t.Fatalf("goal %.0fs: plan infeasible: %v", tg, pl)
		}
		if i > 0 && pl.Workers <= prevWorkers {
			t.Errorf("tighter goal %.0fs should use more workers than %d, got %d",
				tg, prevWorkers, pl.Workers)
		}
		prevWorkers = pl.Workers
		// Validate against the simulator: actual training time within the
		// goal (with a small tolerance for simulation noise).
		res, err := ddnnsim.Run(p.Workload, cloud.Homogeneous(pl.Type, pl.Workers, pl.PS),
			ddnnsim.Options{Iterations: pl.Iterations, LossEvery: pl.Iterations})
		if err != nil {
			t.Fatal(err)
		}
		if res.TrainingTime > tg*1.05 {
			t.Errorf("goal %.0fs: simulated time %.0fs misses the goal (plan %v)",
				tg, res.TrainingTime, pl)
		}
	}
}

// Figure 12 regime: tightening the loss target at a fixed 60-minute
// deadline eventually requires a second PS node.
func TestFigure12TightLossAddsPS(t *testing.T) {
	p := prof(t, "cifar10 DNN")
	cat := m4Only(t)
	loose, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: 3600, LossTarget: 0.8}, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: 3600, LossTarget: 0.6}, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if loose.PS != 1 {
		t.Errorf("loose target should need 1 PS, got %d", loose.PS)
	}
	if tight.PS < 2 {
		t.Errorf("tight target should escalate to >= 2 PS, got %d", tight.PS)
	}
	if !tight.Feasible {
		t.Errorf("tight plan infeasible: %v", tight)
	}
	if tight.Workers <= loose.Workers {
		t.Errorf("tight target should use more workers: %d vs %d", tight.Workers, loose.Workers)
	}
}

// Figure 13 regime: VGG-19 ASP deadlines.
func TestFigure13VGGDeadlines(t *testing.T) {
	p := prof(t, "VGG-19")
	cat := m4Only(t)
	for _, tg := range []float64{1800, 3600, 5400} {
		pl, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: tg, LossTarget: 0.8}, Catalog: cat})
		if err != nil {
			t.Fatalf("goal %.0f: %v", tg, err)
		}
		if !pl.Feasible {
			t.Fatalf("goal %.0fs infeasible: %v", tg, pl)
		}
		res, err := ddnnsim.Run(p.Workload, cloud.Homogeneous(pl.Type, pl.Workers, pl.PS),
			ddnnsim.Options{Iterations: pl.Iterations, LossEvery: pl.Iterations})
		if err != nil {
			t.Fatal(err)
		}
		if res.TrainingTime > tg*1.08 {
			t.Errorf("goal %.0fs: simulated %.0fs misses (plan %v)", tg, res.TrainingTime, pl)
		}
		// The achieved loss must reach the target.
		if res.FinalLoss > 0.8*1.1 {
			t.Errorf("goal %.0fs: final loss %.3f above target", tg, res.FinalLoss)
		}
	}
}

func TestProvisionPicksCheapestType(t *testing.T) {
	// With the full catalog, the plan should pick a type that meets the
	// goal; verify the choice is at least as cheap as an m4-only plan.
	p := prof(t, "ResNet-32")
	goal := Goal{TimeSec: 7200, LossTarget: 0.6}
	full, err := Provision(Request{Profile: p, Goal: goal})
	if err != nil {
		t.Fatal(err)
	}
	m4only, err := Provision(Request{Profile: p, Goal: goal, Catalog: m4Only(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Feasible {
		t.Fatalf("full-catalog plan infeasible: %v", full)
	}
	if full.Cost > m4only.Cost+1e-9 {
		t.Errorf("full catalog cost $%.3f exceeds m4-only $%.3f", full.Cost, m4only.Cost)
	}
}

func TestProvisionImpossibleGoalBestEffort(t *testing.T) {
	p := prof(t, "VGG-19")
	// 60 seconds to loss 0.8 is impossible; expect a best-effort plan.
	pl, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: 60, LossTarget: 0.8}, Catalog: m4Only(t)})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Feasible {
		t.Errorf("impossible goal marked feasible: %v", pl)
	}
	if pl.Workers < 1 || pl.PS < 1 {
		t.Errorf("best-effort plan malformed: %v", pl)
	}
	if !strings.Contains(pl.String(), "BEST EFFORT") {
		t.Errorf("String() = %q should flag best effort", pl.String())
	}
}

func TestProvisionUnreachableLossErrors(t *testing.T) {
	p := prof(t, "VGG-19")
	if _, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: 3600, LossTarget: 0.1}}); err == nil {
		t.Error("unreachable loss should error")
	}
}

func TestWorkersAtLeastPS(t *testing.T) {
	// Constraint (11): nwk/nps >= 1 must hold in any returned plan.
	for _, name := range []string{"cifar10 DNN", "VGG-19", "ResNet-32", "mnist DNN"} {
		p := prof(t, name)
		for _, tg := range []float64{1800, 7200} {
			pl, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: tg, LossTarget: 0.8}})
			if err != nil {
				continue
			}
			if pl.Workers < pl.PS {
				t.Errorf("%s @%.0fs: workers %d < PS %d", name, tg, pl.Workers, pl.PS)
			}
		}
	}
}

func TestPlanCostMatchesEq8(t *testing.T) {
	p := prof(t, "cifar10 DNN")
	pl, err := Provision(Request{Profile: p, Goal: Goal{TimeSec: 7200, LossTarget: 0.8}, Catalog: m4Only(t)})
	if err != nil {
		t.Fatal(err)
	}
	want := pl.Type.PricePerHour * float64(pl.Workers+pl.PS) * pl.PredTime / 3600
	if math.Abs(pl.Cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", pl.Cost, want)
	}
}

// section53Request is the Section 5.3 overhead question: cifar10 DNN to
// loss 0.8 within 5400 s over the default catalog.
func section53Request(tb testing.TB) Request {
	tb.Helper()
	return Request{Profile: prof(tb, "cifar10 DNN"), Goal: Goal{TimeSec: 5400, LossTarget: 0.8}}
}

// Section 5.3: Algorithm 1 must run in milliseconds.
func BenchmarkSection53Provision(b *testing.B) {
	req := section53Request(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Provision(req); err != nil {
			b.Fatal(err)
		}
	}
}
