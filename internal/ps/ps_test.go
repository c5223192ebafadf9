package ps

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cynthia/internal/data"
	"cynthia/internal/model"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := writeFrame(&buf, msgSync, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgSync || string(got) != "hello world" {
		t.Errorf("round trip = %d %q", typ, got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a header claiming a huge payload.
	buf.Write([]byte{msgSync, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	xs := []float64{1.5, -2.25, math.Pi, 0, math.MaxFloat64}
	payload := encodeFloats(42, xs)
	step, got, err := decodeFloats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if step != 42 || len(got) != len(xs) {
		t.Fatalf("step %d len %d", step, len(got))
	}
	for i := range xs {
		if xs[i] != got[i] {
			t.Errorf("xs[%d] = %v, got %v", i, xs[i], got[i])
		}
	}
	if _, _, err := decodeFloats([]byte{1, 2, 3}); err == nil {
		t.Error("malformed payload accepted")
	}
	if _, _, err := decodeFloats(make([]byte, 4+3)); err == nil {
		t.Error("non-multiple-of-8 payload accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	id, n, err := decodeHello(encodeHello(3, 999))
	if err != nil || id != 3 || n != 999 {
		t.Errorf("hello round trip: %d %d %v", id, n, err)
	}
	if _, _, err := decodeHello([]byte{1}); err == nil {
		t.Error("malformed hello accepted")
	}
}

// Property: shard ranges partition [0, numParams) exactly.
func TestPropertyShardRangesPartition(t *testing.T) {
	f := func(pRaw uint16, sRaw uint8) bool {
		numParams := int(pRaw) + 1
		shards := int(sRaw)%8 + 1
		if shards > numParams {
			shards = numParams
		}
		prevHi := 0
		for k := 0; k < shards; k++ {
			lo, hi := ShardRange(numParams, k, shards)
			if lo != prevHi || hi < lo {
				return false
			}
			prevHi = hi
		}
		return prevHi == numParams
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Init: nil, Workers: 1, LR: 0.1}); err == nil {
		t.Error("empty init accepted")
	}
	if _, err := NewServer(ServerConfig{Init: []float64{1}, Workers: 0, LR: 0.1}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewServer(ServerConfig{Init: []float64{1}, Workers: 1, LR: 0}); err == nil {
		t.Error("zero lr accepted")
	}
}

func TestServerASPAppliesImmediately(t *testing.T) {
	srv, err := NewServer(ServerConfig{Init: []float64{1, 2}, Sync: model.ASP, Workers: 4, LR: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	params, version, err := srv.sync(0, 1, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Errorf("version = %d, want 1", version)
	}
	if params[0] != 0 || params[1] != 1 {
		t.Errorf("params = %v, want [0 1]", params)
	}
}

func TestServerPureFetch(t *testing.T) {
	srv, err := NewServer(ServerConfig{Init: []float64{7}, Sync: model.BSP, Workers: 2, LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	params, version, err := srv.sync(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 || params[0] != 7 {
		t.Errorf("fetch = %v v%d", params, version)
	}
}

func TestServerRejectsWrongGradLength(t *testing.T) {
	srv, _ := NewServer(ServerConfig{Init: []float64{1, 2}, Sync: model.ASP, Workers: 1, LR: 0.1})
	if _, _, err := srv.sync(0, 1, []float64{1}); err == nil {
		t.Error("wrong-length gradient accepted")
	}
}

func TestServerBSPBarrierAverages(t *testing.T) {
	srv, err := NewServer(ServerConfig{Init: []float64{10}, Sync: model.BSP, Workers: 2, LR: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []float64, 2)
	for _, g := range []float64{2, 4} {
		go func(g float64) {
			params, _, err := srv.sync(0, 1, []float64{g})
			if err != nil {
				t.Error(err)
			}
			done <- params
		}(g)
	}
	a, b := <-done, <-done
	// Average gradient (2+4)/2 = 3; params = 10 - 3 = 7; both workers see
	// the post-barrier value.
	if a[0] != 7 || b[0] != 7 {
		t.Errorf("barrier params = %v, %v, want 7", a, b)
	}
	if srv.Version() != 1 {
		t.Errorf("version = %d, want 1", srv.Version())
	}
}

func TestRunWorkerValidation(t *testing.T) {
	if _, err := RunWorker(WorkerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func dataset(t *testing.T, n int) *data.Set {
	t.Helper()
	s, err := data.Synthetic(rand.New(rand.NewSource(42)), n, 12, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocalJobBSPTrains(t *testing.T) {
	res, err := RunLocalJob(JobConfig{
		Sizes:      []int{12, 24, 3},
		Sync:       model.BSP,
		Workers:    3,
		Servers:    2,
		Dataset:    dataset(t, 300),
		Batch:      20,
		Iterations: 120,
		LR:         0.2,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFinalLoss >= res.MeanInitialLoss*0.6 {
		t.Errorf("loss %.3f -> %.3f: insufficient progress", res.MeanInitialLoss, res.MeanFinalLoss)
	}
	if res.TrainAccuracy < 0.85 {
		t.Errorf("accuracy = %v, want > 0.85", res.TrainAccuracy)
	}
	// BSP: every shard applied exactly Iterations rounds, each of
	// Workers pushes.
	for k, ss := range res.ServerStats {
		if ss.Applies != 120 {
			t.Errorf("shard %d applies = %d, want 120", k, ss.Applies)
		}
		if ss.Pushes != 360 {
			t.Errorf("shard %d pushes = %d, want 360", k, ss.Pushes)
		}
		if ss.BytesIn <= 0 || ss.BytesOut <= 0 {
			t.Errorf("shard %d has no traffic", k)
		}
	}
	for _, ws := range res.WorkerStats {
		if ws.Iterations != 120 || len(ws.Losses) != 120 {
			t.Errorf("worker %d ran %d iterations", ws.ID, ws.Iterations)
		}
	}
}

func TestLocalJobASPTrains(t *testing.T) {
	res, err := RunLocalJob(JobConfig{
		Sizes:      []int{12, 16, 3},
		Sync:       model.ASP,
		Workers:    4,
		Servers:    1,
		Dataset:    dataset(t, 400),
		Batch:      16,
		Iterations: 100,
		LR:         0.05,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFinalLoss >= res.MeanInitialLoss*0.8 {
		t.Errorf("ASP loss %.3f -> %.3f: insufficient progress", res.MeanInitialLoss, res.MeanFinalLoss)
	}
	// ASP: each push applies individually.
	if res.ServerStats[0].Applies != 400 {
		t.Errorf("applies = %d, want 400", res.ServerStats[0].Applies)
	}
	if acc := res.TrainAccuracy; acc < 0.8 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestLocalJobManyShards(t *testing.T) {
	res, err := RunLocalJob(JobConfig{
		Sizes:      []int{12, 8, 3},
		Sync:       model.BSP,
		Workers:    2,
		Servers:    4,
		Dataset:    dataset(t, 200),
		Batch:      10,
		Iterations: 40,
		LR:         0.2,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerStats) != 4 {
		t.Fatalf("%d shards", len(res.ServerStats))
	}
	if res.MeanFinalLoss >= res.MeanInitialLoss {
		t.Error("no training progress with 4 shards")
	}
}

func TestLocalJobValidation(t *testing.T) {
	if _, err := RunLocalJob(JobConfig{Workers: 0, Servers: 1}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := RunLocalJob(JobConfig{Workers: 1, Servers: 1}); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestGlobalLossCurve(t *testing.T) {
	r := &JobResult{WorkerStats: []*WorkerStats{
		{Losses: []float64{4, 2}},
		{Losses: []float64{2}},
	}}
	curve := r.GlobalLossCurve()
	if len(curve) != 2 || curve[0] != 3 || curve[1] != 2 {
		t.Errorf("curve = %v", curve)
	}
}

func TestBSPDeterministicAcrossShardCounts(t *testing.T) {
	// The sharding is a pure partition: with identical seeds, 1-shard and
	// 3-shard BSP jobs must produce identical final parameters.
	run := func(servers int) []float64 {
		res, err := RunLocalJob(JobConfig{
			Sizes:      []int{12, 8, 3},
			Sync:       model.BSP,
			Workers:    2,
			Servers:    servers,
			Dataset:    dataset(t, 100),
			Batch:      10,
			Iterations: 15,
			LR:         0.1,
			Seed:       9,
		})
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]float64, res.FinalModel.NumParams())
		if err := res.FinalModel.FlattenParams(flat); err != nil {
			t.Fatal(err)
		}
		return flat
	}
	a, b := run(1), run(3)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("param %d differs across shard counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkLocalJobBSP(b *testing.B) {
	set, err := data.Synthetic(rand.New(rand.NewSource(42)), 200, 12, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunLocalJob(JobConfig{
			Sizes: []int{12, 16, 3}, Sync: model.BSP, Workers: 2, Servers: 1,
			Dataset: set, Batch: 10, Iterations: 20, LR: 0.1, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStalenessBSPZero(t *testing.T) {
	res, err := RunLocalJob(JobConfig{
		Sizes:      []int{12, 8, 3},
		Sync:       model.BSP,
		Workers:    4,
		Servers:    2,
		Dataset:    dataset(t, 200),
		Batch:      10,
		Iterations: 30,
		LR:         0.1,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range res.WorkerStats {
		if m := ws.MeanStaleness(); m != 0 {
			t.Errorf("worker %d BSP staleness = %v, want 0", ws.ID, m)
		}
	}
}

// TestStalenessASPGrowsWithWorkers checks that mean ASP staleness is about
// workers-1. Unbounded ASP cannot promise that: the scheduler may run one
// worker's whole budget before another starts, and then every staleness
// is 0. So the job runs under an SSP bound s, which makes the workers
// overlap, and the test checks bounds that hold under any interleaving.
//
// A worker records, per iteration, the other workers' applies since its
// previous reply (the first since its initial fetch). Over N iterations
// they sum to the other workers' applies between its initial fetch and
// its last reply.
//   - Before its first push its clock is 0, so no other worker gets a
//     reply for a step beyond s, and none has applied beyond step s+1.
//   - Its step-N reply waits until every worker has applied step N-s.
//
// So each of the W-1 others lands at least N-2s-1 applies in between, and
// at most all N of its own. Mean staleness lies in
// [(W-1)(N-2s-1)/N, W-1]. With N=60 and s=2 that is [0.92, 1] for two
// workers and [4.58, 5] for six, so it grows with the worker count.
func TestStalenessASPGrowsWithWorkers(t *testing.T) {
	const iters, s = 60, 2
	run := func(workers int) float64 {
		res, err := RunLocalJob(JobConfig{
			Sizes:        []int{12, 8, 3},
			Sync:         model.ASP,
			Workers:      workers,
			Servers:      1,
			Dataset:      dataset(t, 400),
			Batch:        10,
			Iterations:   iters,
			LR:           0.01,
			MaxStaleness: s,
			Seed:         6,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, ws := range res.WorkerStats {
			total += ws.MeanStaleness()
		}
		mean := total / float64(workers)
		lo := float64((workers-1)*(iters-2*s-1)) / iters
		if hi := float64(workers - 1); mean < lo || mean > hi {
			t.Errorf("%d-worker mean staleness = %v, want within [%v, %v]", workers, mean, lo, hi)
		}
		return mean
	}
	if s2, s6 := run(2), run(6); s6 <= s2 {
		t.Errorf("staleness should grow with workers: 2wk=%v 6wk=%v", s2, s6)
	}
}

func TestMeanStalenessEmpty(t *testing.T) {
	var ws WorkerStats
	if ws.MeanStaleness() != 0 {
		t.Error("empty staleness should be 0")
	}
}
