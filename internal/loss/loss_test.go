package loss

import (
	"math"
	"math/rand"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
)

func TestFitValidation(t *testing.T) {
	if _, _, err := Fit(model.BSP, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, _, err := Fit(model.BSP, []Point{{Iter: 0, Loss: 1}, {Iter: 2, Loss: 1}}); err == nil {
		t.Error("zero iteration accepted")
	}
	if _, _, err := Fit(model.ASP, []Point{{Iter: 1, Workers: 0, Loss: 1}, {Iter: 2, Workers: 0, Loss: 1}}); err == nil {
		t.Error("ASP without workers accepted")
	}
}

func TestFitExactBSP(t *testing.T) {
	truth := model.LossParams{Beta0: 600, Beta1: 0.3}
	var pts []Point
	for s := 1; s <= 1000; s += 7 {
		pts = append(pts, Point{Iter: s, Workers: 4, Loss: truth.Loss(model.BSP, float64(s), 4)})
	}
	got, r2, err := Fit(model.BSP, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Beta0-600) > 1e-6 || math.Abs(got.Beta1-0.3) > 1e-9 {
		t.Errorf("fit = %+v, want {600 0.3}", got)
	}
	if r2 < 0.999999 {
		t.Errorf("R² = %v, want ~1", r2)
	}
}

func TestFitExactASPPooledAcrossClusterSizes(t *testing.T) {
	truth := model.LossParams{Beta0: 300, Beta1: 0.48}
	var pts []Point
	for _, n := range []int{4, 9} {
		for s := 10; s <= 3000; s += 50 {
			pts = append(pts, Point{Iter: s, Workers: n, Loss: truth.Loss(model.ASP, float64(s), n)})
		}
	}
	got, r2, err := Fit(model.ASP, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Beta0-300) > 1e-6 || math.Abs(got.Beta1-0.48) > 1e-9 {
		t.Errorf("fit = %+v, want {300 0.48}", got)
	}
	if r2 < 0.999999 {
		t.Errorf("R² = %v", r2)
	}
}

func TestFitNoisyRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := model.LossParams{Beta0: 1200, Beta1: 0.25}
	var pts []Point
	for s := 1; s <= 5000; s += 3 {
		l := truth.Loss(model.BSP, float64(s), 1) * (1 + 0.03*rng.NormFloat64())
		pts = append(pts, Point{Iter: s, Workers: 1, Loss: l})
	}
	got, r2, err := Fit(model.BSP, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Beta0-1200)/1200 > 0.03 {
		t.Errorf("β0 = %v, want ~1200", got.Beta0)
	}
	if math.Abs(got.Beta1-0.25) > 0.03 {
		t.Errorf("β1 = %v, want ~0.25", got.Beta1)
	}
	if r2 < 0.95 {
		t.Errorf("R² = %v, want > 0.95", r2)
	}
}

// Figure 4 end-to-end: fit the simulator's loss curves and recover the
// workload's ground-truth coefficients.
func TestFigure4FitSimulatedCurves(t *testing.T) {
	m4, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := model.WorkloadByName("cifar10 DNN")
	var pts []Point
	for _, n := range []int{2, 4, 8} {
		res, err := ddnnsim.Run(w, cloud.Homogeneous(m4, n, 1),
			ddnnsim.Options{Iterations: 6000, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, Subsample(PointsFromResult(res, n), 5)...)
	}
	got, r2, err := Fit(model.BSP, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Beta0-w.Loss.Beta0)/w.Loss.Beta0 > 0.05 {
		t.Errorf("β0 = %v, truth %v", got.Beta0, w.Loss.Beta0)
	}
	if math.Abs(got.Beta1-w.Loss.Beta1) > 0.05 {
		t.Errorf("β1 = %v, truth %v", got.Beta1, w.Loss.Beta1)
	}
	if r2 < 0.9 {
		t.Errorf("R² = %v", r2)
	}
}

func TestSubsample(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i].Iter = i + 1
	}
	if got := Subsample(pts, 1); len(got) != 10 {
		t.Errorf("k=1 len = %d", len(got))
	}
	got := Subsample(pts, 3)
	if len(got) != 4 || got[0].Iter != 1 || got[3].Iter != 10 {
		t.Errorf("k=3 = %+v", got)
	}
}

func TestFitSingularWhenConstantFeature(t *testing.T) {
	// All points at the same iteration make the design matrix singular.
	pts := []Point{{Iter: 5, Workers: 1, Loss: 1}, {Iter: 5, Workers: 1, Loss: 1.1}}
	if _, _, err := Fit(model.BSP, pts); err == nil {
		t.Error("singular fit accepted")
	}
}
