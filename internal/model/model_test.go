package model

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestShapeElements(t *testing.T) {
	if got := (Shape{H: 4, W: 5, C: 3}).Elements(); got != 60 {
		t.Errorf("Elements = %d, want 60", got)
	}
	if s := (Shape{H: 2, W: 2, C: 2}).String(); s != "2x2x2" {
		t.Errorf("String = %q", s)
	}
}

func TestConv2DShapes(t *testing.T) {
	in := Shape{H: 32, W: 32, C: 3}
	same := Conv2D{Filters: 16, Kernel: 3, Stride: 1, Same: true}
	out, err := same.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{H: 32, W: 32, C: 16}) {
		t.Errorf("same conv out = %v", out)
	}
	strided := Conv2D{Filters: 16, Kernel: 3, Stride: 2, Same: true}
	out, _ = strided.OutShape(in)
	if out != (Shape{H: 16, W: 16, C: 16}) {
		t.Errorf("strided conv out = %v", out)
	}
	valid := Conv2D{Filters: 8, Kernel: 5, Stride: 1}
	out, _ = valid.OutShape(in)
	if out != (Shape{H: 28, W: 28, C: 8}) {
		t.Errorf("valid conv out = %v", out)
	}
	if _, err := (Conv2D{Filters: 8, Kernel: 64, Stride: 1}).OutShape(in); err == nil {
		t.Error("oversized valid kernel accepted")
	}
	if _, err := (Conv2D{}).OutShape(in); err == nil {
		t.Error("zero conv config accepted")
	}
}

func TestConv2DParamsAndFLOPs(t *testing.T) {
	in := Shape{H: 8, W: 8, C: 4}
	c := Conv2D{Filters: 10, Kernel: 3, Stride: 1, Same: true}
	wantParams := int64(3*3*4*10 + 10)
	if got := c.Params(in); got != wantParams {
		t.Errorf("Params = %d, want %d", got, wantParams)
	}
	// 2 FLOPs/MAC * out elements (8*8*10) * kernel volume (3*3*4).
	wantFLOPs := 2.0 * 640 * 36
	if got := c.FwdFLOPsPerSample(in); got != wantFLOPs {
		t.Errorf("FLOPs = %v, want %v", got, wantFLOPs)
	}
}

func TestDense(t *testing.T) {
	in := Shape{H: 1, W: 1, C: 784}
	d := Dense{Out: 100}
	out, err := d.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{H: 1, W: 1, C: 100}) {
		t.Errorf("out = %v", out)
	}
	if got := d.Params(in); got != 78500 {
		t.Errorf("Params = %d, want 78500", got)
	}
	if got := d.FwdFLOPsPerSample(in); got != 2*784*100 {
		t.Errorf("FLOPs = %v", got)
	}
	if _, err := (Dense{Out: 0}).OutShape(in); err == nil {
		t.Error("zero-output dense accepted")
	}
}

func TestPoolingAndActivations(t *testing.T) {
	in := Shape{H: 24, W: 24, C: 64}
	p := MaxPool{Kernel: 3, Stride: 2}
	out, _ := p.OutShape(in)
	if out != (Shape{H: 12, W: 12, C: 64}) {
		t.Errorf("pool out = %v", out)
	}
	if p.Params(in) != 0 {
		t.Error("pool has params")
	}
	if _, err := (MaxPool{}).OutShape(in); err == nil {
		t.Error("bad pool accepted")
	}
	gap := GlobalAvgPool{}
	out, _ = gap.OutShape(in)
	if out != (Shape{H: 1, W: 1, C: 64}) {
		t.Errorf("gap out = %v", out)
	}
	r := ReLU{}
	out, _ = r.OutShape(in)
	if out != in || r.Params(in) != 0 {
		t.Error("relu changed shape or has params")
	}
	bn := BatchNorm{}
	if bn.Params(in) != 128 {
		t.Errorf("bn params = %d, want 128", bn.Params(in))
	}
	sm := Softmax{}
	out, _ = sm.OutShape(in)
	if out != in {
		t.Error("softmax changed shape")
	}
}

func TestResidualIdentityVsProjection(t *testing.T) {
	in := Shape{H: 8, W: 8, C: 16}
	identity := Residual{Body: []Layer{
		Conv2D{Filters: 16, Kernel: 3, Stride: 1, Same: true},
		Conv2D{Filters: 16, Kernel: 3, Stride: 1, Same: true},
	}}
	out, err := identity.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("identity residual out = %v, want %v", out, in)
	}
	bodyParams := int64(3*3*16*16+16) * 2
	if got := identity.Params(in); got != bodyParams {
		t.Errorf("identity residual params = %d, want %d (no projection)", got, bodyParams)
	}

	downsample := Residual{Body: []Layer{
		Conv2D{Filters: 32, Kernel: 3, Stride: 2, Same: true},
		Conv2D{Filters: 32, Kernel: 3, Stride: 1, Same: true},
	}}
	out, _ = downsample.OutShape(in)
	if out != (Shape{H: 4, W: 4, C: 32}) {
		t.Errorf("downsample out = %v", out)
	}
	// Projection conv 1x1 stride 2: 1*1*16*32 + 32 params extra.
	bodyP := int64(3*3*16*32+32) + int64(3*3*32*32+32)
	wantP := bodyP + int64(16*32+32)
	if got := downsample.Params(in); got != wantP {
		t.Errorf("downsample params = %d, want %d", got, wantP)
	}
	if !strings.HasPrefix(identity.Name(), "res[") {
		t.Errorf("residual name = %q", identity.Name())
	}
}

func TestNetworkAnalyze(t *testing.T) {
	n := MnistDNN()
	stats, err := n.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(n.Layers) {
		t.Fatalf("stats len = %d, want %d", len(stats), len(n.Layers))
	}
	out, err := n.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{H: 1, W: 1, C: 10}) {
		t.Errorf("output shape = %v, want 1x1x10", out)
	}
	// 784*512+512 + 512*512+512 + 512*10+10
	want := int64(784*512 + 512 + 512*512 + 512 + 512*10 + 10)
	if got := n.ParamCount(); got != want {
		t.Errorf("params = %d, want %d", got, want)
	}
}

func TestNetworkAnalyzeRejectsBadGraphs(t *testing.T) {
	bad := &Network{NetName: "bad", Input: Shape{}, Layers: []Layer{Dense{Out: 10}}}
	if _, err := bad.Analyze(); err == nil {
		t.Error("empty input accepted")
	}
	bad2 := &Network{NetName: "bad2", Input: Shape{H: 4, W: 4, C: 1}, Layers: []Layer{
		Conv2D{Filters: 4, Kernel: 8, Stride: 1}, // valid conv larger than input
	}}
	if _, err := bad2.Analyze(); err == nil {
		t.Error("inconsistent layer accepted")
	}
}

func TestZooArchitectures(t *testing.T) {
	cases := []struct {
		net       *Network
		out       Shape
		paramLo   int64
		paramHi   int64
		fwdMFLo   float64
		fwdMFHi   float64
		weightMin int // layers with parameters
	}{
		{MnistDNN(), Shape{1, 1, 10}, 650_000, 700_000, 1, 2, 3},
		{Cifar10DNN(), Shape{1, 1, 10}, 1_000_000, 1_150_000, 30, 45, 5},
		// Residual blocks bundle their convolutions into one Layer, so
		// ResNet-32 reports 1 stem conv + 15 residuals + 1 dense = 17+
		// weight-bearing layers.
		{ResNet32(), Shape{1, 1, 10}, 440_000, 500_000, 120, 160, 17},
		{VGG19(), Shape{1, 1, 10}, 19_000_000, 22_000_000, 85, 110, 19},
	}
	for _, c := range cases {
		t.Run(c.net.NetName, func(t *testing.T) {
			out, err := c.net.OutputShape()
			if err != nil {
				t.Fatal(err)
			}
			if out != c.out {
				t.Errorf("output = %v, want %v", out, c.out)
			}
			p := c.net.ParamCount()
			if p < c.paramLo || p > c.paramHi {
				t.Errorf("params = %d, want in [%d, %d]", p, c.paramLo, c.paramHi)
			}
			mf := c.net.FwdGFLOPsPerSample() * 1e3
			if mf < c.fwdMFLo || mf > c.fwdMFHi {
				t.Errorf("fwd MFLOPs = %.1f, want in [%.1f, %.1f]", mf, c.fwdMFLo, c.fwdMFHi)
			}
			stats, _ := c.net.Analyze()
			weightLayers := 0
			for _, s := range stats {
				if s.Params > 0 {
					weightLayers++
				}
			}
			if weightLayers < c.weightMin {
				t.Errorf("weight layers = %d, want >= %d", weightLayers, c.weightMin)
			}
		})
	}
}

func TestVGG19Has19WeightLayers(t *testing.T) {
	stats, err := VGG19().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, s := range stats {
		if s.Params > 0 {
			count++
		}
	}
	if count != 19 {
		t.Errorf("VGG-19 has %d weight layers, want 19", count)
	}
}

func TestIterGFLOPsScalesWithBatch(t *testing.T) {
	n := Cifar10DNN()
	one := n.IterGFLOPs(1)
	if got := n.IterGFLOPs(512); math.Abs(got-512*one) > 1e-9*got {
		t.Errorf("IterGFLOPs(512) = %v, want %v", got, 512*one)
	}
	if math.Abs(one-BackwardFactor*n.FwdGFLOPsPerSample()) > 1e-12 {
		t.Errorf("IterGFLOPs(1) = %v inconsistent with forward cost", one)
	}
}

func TestWorkloadsTable1(t *testing.T) {
	ws := Workloads()
	if len(ws) != 4 {
		t.Fatalf("%d workloads, want 4", len(ws))
	}
	want := map[string]struct {
		batch, iters int
		sync         SyncMode
		dataset      string
	}{
		"ResNet-32":   {128, 3000, ASP, "cifar10"},
		"mnist DNN":   {512, 10000, BSP, "mnist"},
		"VGG-19":      {128, 1000, ASP, "cifar10"},
		"cifar10 DNN": {512, 10000, BSP, "cifar10"},
	}
	for _, w := range ws {
		exp, ok := want[w.Name]
		if !ok {
			t.Errorf("unexpected workload %q", w.Name)
			continue
		}
		if w.Batch != exp.batch || w.Iterations != exp.iters || w.Sync != exp.sync || w.Dataset != exp.dataset {
			t.Errorf("%s config = {%d %d %v %s}, want %+v", w.Name, w.Batch, w.Iterations, w.Sync, w.Dataset, exp)
		}
		if w.WiterGFLOPs <= 0 || w.GparamMB <= 0 || w.PSCPUPerMB <= 0 {
			t.Errorf("%s derived params non-positive: %+v", w.Name, w)
		}
		if w.SyncMB() != 2*w.GparamMB {
			t.Errorf("%s SyncMB = %v, want %v", w.Name, w.SyncMB(), 2*w.GparamMB)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("VGG-19")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "VGG-19" {
		t.Errorf("name = %q", w.Name)
	}
	if _, err := WorkloadByName("AlexNet"); err == nil {
		t.Error("unknown workload found")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := WorkloadByName("cifar10 DNN"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WorkloadByName allocates %.1f times per call, want 0", allocs)
	}
}

// TestWorkloadTableIntact: every lookup shares the Table 1 workloads, so a
// caller that wrote through one would corrupt every later answer. Each
// shared workload must still equal a fresh build from the same NewWorkload
// calls, and a caller reordering or overwriting the Workloads slice must
// not disturb the table.
func TestWorkloadTableIntact(t *testing.T) {
	fresh := buildTable1()
	ws := Workloads()
	if len(ws) != len(fresh) {
		t.Fatalf("%d workloads, want %d", len(ws), len(fresh))
	}
	for i, want := range fresh {
		got, err := WorkloadByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != ws[i] {
			t.Errorf("%s: WorkloadByName and Workloads return different pointers", want.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared workload was modified:\n got %+v\nwant %+v", want.Name, got, want)
		}
	}
	ws[0], ws[1] = nil, ws[0]
	for i, w := range Workloads() {
		if w == nil || w.Name != fresh[i].Name {
			t.Fatalf("writing the returned slice reordered the table: index %d is %v", i, w)
		}
	}
}

// TestWorkloadLookupConcurrent reads the shared table from many goroutines;
// under -race it fails if a lookup, or anything derived from a workload's
// layer graph, writes to shared state.
func TestWorkloadLookupConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, w := range Workloads() {
					got, err := WorkloadByName(w.Name)
					if err != nil || got != w {
						t.Errorf("WorkloadByName(%q) = %p, %v; want %p", w.Name, got, err, w)
						return
					}
					if got.Net.ParamMB() != got.GparamMB || got.WithSync(ASP).Sync != ASP {
						t.Errorf("%s: derived values disagree with the table", w.Name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestNewWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(MnistDNN(), 0, 10, BSP, "d", 0.1, LossParams{}); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := NewWorkload(MnistDNN(), 10, 0, BSP, "d", 0.1, LossParams{}); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := &Network{NetName: "bad", Input: Shape{}, Layers: nil}
	if _, err := NewWorkload(bad, 10, 10, BSP, "d", 0.1, LossParams{}); err == nil {
		t.Error("bad network accepted")
	}
}

func TestLossModelBSPIndependentOfWorkers(t *testing.T) {
	p := LossParams{Beta0: 600, Beta1: 0.3}
	if l2, l8 := p.Loss(BSP, 1000, 2), p.Loss(BSP, 1000, 8); l2 != l8 {
		t.Errorf("BSP loss depends on n: %v vs %v", l2, l8)
	}
	if got, want := p.Loss(BSP, 1000, 1), 0.9; math.Abs(got-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", got, want)
	}
}

func TestLossModelASPDegradesWithWorkers(t *testing.T) {
	p := LossParams{Beta0: 600, Beta1: 0.3}
	l4 := p.Loss(ASP, 3000, 4)
	l9 := p.Loss(ASP, 3000, 9)
	if l9 <= l4 {
		t.Errorf("ASP loss should grow with workers: n=4 %v, n=9 %v", l4, l9)
	}
	want := 600*3/3000.0 + 0.3 // √9 = 3
	if math.Abs(l9-want) > 1e-9 {
		t.Errorf("ASP loss = %v, want %v", l9, want)
	}
}

func TestIterationsToLoss(t *testing.T) {
	w, _ := WorkloadByName("cifar10 DNN") // BSP, β0=1200, β1=0.25
	s, err := w.IterationsToLoss(0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(1200 / 0.55))
	if s != want {
		t.Errorf("s = %d, want %d", s, want)
	}
	// Verify the returned count actually achieves the loss.
	if got := w.Loss.Loss(w.Sync, float64(s), 1); got > 0.8+1e-9 {
		t.Errorf("loss at s=%d is %v > 0.8", s, got)
	}
	if _, err := w.IterationsToLoss(0.1, 1); err == nil {
		t.Error("unreachable loss accepted")
	}
}

func TestIterationsToLossASPGrowsWithWorkers(t *testing.T) {
	w, _ := WorkloadByName("VGG-19")
	s4, _ := w.IterationsToLoss(0.8, 4)
	s16, _ := w.IterationsToLoss(0.8, 16)
	if s16 != 2*s4 && math.Abs(float64(s16)-2*float64(s4)) > 2 {
		t.Errorf("ASP iterations: n=4 %d, n=16 %d; want ~2x", s4, s16)
	}
}

func TestWithSyncAndIterations(t *testing.T) {
	w, _ := WorkloadByName("ResNet-32")
	b := w.WithSync(BSP)
	if b.Sync != BSP || w.Sync != ASP {
		t.Error("WithSync mutated original or failed")
	}
	i := w.WithIterations(42)
	if i.Iterations != 42 || w.Iterations != 3000 {
		t.Error("WithIterations mutated original or failed")
	}
}

func TestSyncModeString(t *testing.T) {
	if BSP.String() != "BSP" || ASP.String() != "ASP" {
		t.Error("sync mode strings wrong")
	}
	if s := SyncMode(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown mode string = %q", s)
	}
}

// Property: the internal sqrt helper agrees with math.Sqrt.
func TestPropertySqrt(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		got := sqrt(x)
		want := math.Sqrt(x)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: loss is monotonically decreasing in s and IterationsToLoss is
// its inverse up to rounding.
func TestPropertyLossMonotoneAndInvertible(t *testing.T) {
	f := func(b0 uint16, sRaw uint16, nRaw uint8) bool {
		p := LossParams{Beta0: float64(b0%5000) + 1, Beta1: 0.1}
		s := float64(sRaw%10000) + 1
		n := int(nRaw%16) + 1
		for _, mode := range []SyncMode{BSP, ASP} {
			if p.Loss(mode, s, n) < p.Loss(mode, s+1, n) {
				return false
			}
			w := Workload{Sync: mode, Loss: p}
			target := p.Loss(mode, s, n)
			got, err := w.IterationsToLoss(target, n)
			if err != nil {
				return false
			}
			if math.Abs(float64(got)-s) > 1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResNet50Architecture(t *testing.T) {
	n := ResNet50()
	out, err := n.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{1, 1, 1000}) {
		t.Errorf("output = %v, want 1x1x1000", out)
	}
	p := n.ParamCount()
	// ~25.5M parameters.
	if p < 23_000_000 || p > 28_000_000 {
		t.Errorf("params = %d, want ~25.5M", p)
	}
	// Forward ~8 GFLOPs/sample at 2 FLOPs per MAC.
	fwd := n.FwdGFLOPsPerSample()
	if fwd < 6 || fwd > 11 {
		t.Errorf("fwd = %.1f GFLOPs, want ~8", fwd)
	}
}

func TestResNet50Workload(t *testing.T) {
	w := ResNet50Workload()
	if w.Sync != BSP || w.Batch != 256 {
		t.Errorf("config = %v/%d", w.Sync, w.Batch)
	}
	if w.GparamMB < 90 || w.GparamMB > 115 {
		t.Errorf("gparam = %.1f MB, want ~102", w.GparamMB)
	}
	s, err := w.IterationsToLoss(2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 2000 {
		t.Errorf("iterations to loss 2.0 = %d, want 2000", s)
	}
}
