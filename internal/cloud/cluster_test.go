package cloud

import (
	"math"
	"testing"
)

func types(t *testing.T) (m4, m1 InstanceType) {
	t.Helper()
	c := DefaultCatalog()
	var err error
	if m4, err = c.Lookup(M4XLarge); err != nil {
		t.Fatal(err)
	}
	if m1, err = c.Lookup(M1XLarge); err != nil {
		t.Fatal(err)
	}
	return m4, m1
}

func TestHomogeneousSpec(t *testing.T) {
	m4, _ := types(t)
	spec := Homogeneous(m4, 5, 2)
	if spec.NumWorkers() != 5 || spec.NumPS() != 2 {
		t.Errorf("shape = %d/%d", spec.NumWorkers(), spec.NumPS())
	}
	for _, w := range spec.Workers {
		if w.Name != M4XLarge {
			t.Errorf("worker type %s", w.Name)
		}
	}
}

func TestHeterogeneousSplit(t *testing.T) {
	m4, m1 := types(t)
	spec := Heterogeneous(m4, m1, 7, 1)
	fast, slow := 0, 0
	for _, w := range spec.Workers {
		switch w.Name {
		case M4XLarge:
			fast++
		case M1XLarge:
			slow++
		}
	}
	if fast != 4 || slow != 3 {
		t.Errorf("split = %d fast / %d slow, want 4/3 (⌈n/2⌉/⌊n/2⌋)", fast, slow)
	}
	if spec.PS[0].Name != M4XLarge {
		t.Errorf("PS type = %s, want fast", spec.PS[0].Name)
	}
}

func TestClusterAggregates(t *testing.T) {
	m4, m1 := types(t)
	spec := Heterogeneous(m4, m1, 4, 2)
	if got := spec.MinWorkerGFLOPS(); got != m1.GFLOPS {
		t.Errorf("MinWorkerGFLOPS = %v, want %v", got, m1.GFLOPS)
	}
	if got := spec.TotalPSGFLOPS(); math.Abs(got-2*m4.GFLOPS) > 1e-12 {
		t.Errorf("TotalPSGFLOPS = %v", got)
	}
	if got := spec.TotalPSNetMBps(); math.Abs(got-2*m4.NetMBps) > 1e-12 {
		t.Errorf("TotalPSNetMBps = %v", got)
	}
	wantCost := 2*m4.PricePerHour + 2*m1.PricePerHour + 2*m4.PricePerHour
	if got := spec.HourlyCost(); math.Abs(got-wantCost) > 1e-12 {
		t.Errorf("HourlyCost = %v, want %v", got, wantCost)
	}
}

func TestEmptyClusterAggregates(t *testing.T) {
	var spec ClusterSpec
	if spec.MinWorkerGFLOPS() != 0 ||
		spec.TotalPSGFLOPS() != 0 || spec.TotalPSNetMBps() != 0 || spec.HourlyCost() != 0 {
		t.Error("empty cluster aggregates should be zero")
	}
}
