package ps

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cynthia/internal/data"
	"cynthia/internal/model"
)

func TestNewOptimizer(t *testing.T) {
	for _, name := range []string{"", "sgd", "momentum", "adam"} {
		opt, err := NewOptimizer(name, 0.1)
		if err != nil {
			t.Errorf("NewOptimizer(%q): %v", name, err)
			continue
		}
		if name != "" && opt.Name() != name {
			t.Errorf("Name() = %q, want %q", opt.Name(), name)
		}
	}
	if _, err := NewOptimizer("lamb", 0.1); err == nil {
		t.Error("unknown optimizer accepted")
	}
	if _, err := NewOptimizer("sgd", 0); err == nil {
		t.Error("zero lr accepted")
	}
}

func TestSGDApply(t *testing.T) {
	params := []float64{1, 2}
	(&SGD{LR: 0.5}).Apply(params, []float64{2, -2})
	if params[0] != 0 || params[1] != 3 {
		t.Errorf("params = %v", params)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	m := &Momentum{LR: 1, Beta: 0.5}
	params := []float64{0}
	m.Apply(params, []float64{1}) // v=1, w=-1
	if params[0] != -1 {
		t.Fatalf("step1 = %v", params[0])
	}
	m.Apply(params, []float64{1}) // v=1.5, w=-2.5
	if params[0] != -2.5 {
		t.Fatalf("step2 = %v", params[0])
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With bias correction, the first Adam step has magnitude ~lr
	// regardless of gradient scale.
	for _, g := range []float64{1e-3, 1, 1e3} {
		a := &Adam{LR: 0.1}
		params := []float64{0}
		a.Apply(params, []float64{g})
		if math.Abs(math.Abs(params[0])-0.1) > 1e-3 {
			t.Errorf("grad %v: first step = %v, want magnitude ~0.1", g, params[0])
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 with gradient 2(w-3).
	a := &Adam{LR: 0.2}
	w := []float64{-5.0}
	for i := 0; i < 400; i++ {
		a.Apply(w, []float64{2 * (w[0] - 3)})
	}
	if math.Abs(w[0]-3) > 0.05 {
		t.Errorf("w = %v, want ~3", w[0])
	}
}

func TestLocalJobWithAdam(t *testing.T) {
	set, err := data.Synthetic(rand.New(rand.NewSource(42)), 300, 12, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLocalJob(JobConfig{
		Sizes:      []int{12, 16, 3},
		Sync:       model.BSP,
		Workers:    2,
		Servers:    2,
		Dataset:    set,
		Batch:      20,
		Iterations: 80,
		LR:         0.1, // ignored when Optimizer is set
		Optimizer:  "adam",
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFinalLoss >= res.MeanInitialLoss*0.5 {
		t.Errorf("adam loss %.3f -> %.3f", res.MeanInitialLoss, res.MeanFinalLoss)
	}
	if res.TrainAccuracy < 0.85 {
		t.Errorf("adam accuracy = %v", res.TrainAccuracy)
	}
}

func TestSSPBoundBlocksFastWorker(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Init:         []float64{0},
		Sync:         model.ASP,
		Workers:      2,
		LR:           0.1,
		MaxStaleness: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Worker 0 races ahead: steps 1 and 2 pass (staleness vs worker 1 at
	// 0 is within the bound), step 3 must block.
	for step := uint32(1); step <= 2; step++ {
		if _, _, err := srv.sync(0, step, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	released := make(chan error, 1)
	go func() {
		_, _, err := srv.sync(0, 3, []float64{1})
		released <- err
	}()
	waitUntil(t, "third sync to block", func() bool { return srv.Stats().Pushes == 3 })
	select {
	case err := <-released:
		t.Fatalf("step 3 not blocked (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	// Worker 1 advancing to step 1 releases worker 0 (min clock 1 + bound
	// 2 >= 3).
	if _, _, err := srv.sync(1, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("released with error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fast worker never released")
	}
}

func TestSSPCloseReleasesBlockedWorker(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Init:         []float64{0},
		Sync:         model.ASP,
		Workers:      2,
		LR:           0.1,
		MaxStaleness: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.sync(0, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	released := make(chan error, 1)
	go func() {
		_, _, err := srv.sync(0, 2, []float64{1})
		released <- err
	}()
	// Pushes is counted before the staleness wait, so two pushes mean the
	// goroutine is in (or entering) the blocked region.
	waitUntil(t, "second sync to block", func() bool { return srv.Stats().Pushes == 2 })
	srv.Close()
	select {
	case err := <-released:
		if err == nil {
			t.Error("blocked worker released without error after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not release blocked worker")
	}
}

func TestSSPBoundedJobTrains(t *testing.T) {
	const workers, s = 3, 2
	set, err := data.Synthetic(rand.New(rand.NewSource(42)), 300, 12, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLocalJob(JobConfig{
		Sizes:        []int{12, 16, 3},
		Sync:         model.ASP,
		Workers:      workers,
		Servers:      1,
		Dataset:      set,
		Batch:        16,
		Iterations:   60,
		LR:           0.05,
		MaxStaleness: s,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFinalLoss >= res.MeanInitialLoss*0.8 {
		t.Errorf("SSP loss %.3f -> %.3f", res.MeanInitialLoss, res.MeanFinalLoss)
	}
	// Observed staleness is the number of other workers' applies between
	// two consecutive replies to worker i, whose versions are read after
	// the SSP wait for steps c and c+1. The server applies a push before
	// that wait, so:
	//   - when i's step-c reply leaves, minClock >= c-s: every worker j
	//     has already applied step c-s;
	//   - when i's step-(c+1) reply leaves, minClock <= clock_i = c+1, and
	//     j can only have applied step k after its step-(k-1) reply, which
	//     needs minClock >= k-1-s, so k <= c+s+2.
	// Each of the W-1 other workers thus lands at most the steps
	// c-s+1 .. c+s+2 in between: staleness <= (W-1)(2s+2).
	bound := (workers - 1) * (2*s + 2)
	for _, ws := range res.WorkerStats {
		for _, st := range ws.Staleness {
			if st > bound {
				t.Errorf("worker %d staleness %d exceeds the SSP bound %d (s=%d)", ws.ID, st, bound, s)
			}
		}
	}
}

func TestNegativeStalenessRejected(t *testing.T) {
	if _, err := NewServer(ServerConfig{Init: []float64{1}, Workers: 1, LR: 0.1, MaxStaleness: -1}); err == nil {
		t.Error("negative staleness accepted")
	}
}
