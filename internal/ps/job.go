package ps

import (
	"fmt"
	"math/rand"
	"sync"

	"cynthia/internal/data"
	"cynthia/internal/model"
	"cynthia/internal/nn"
)

// JobConfig describes a complete local training job: PS shards and workers
// all run in this process over real TCP loopback connections.
type JobConfig struct {
	// Sizes is the MLP layer layout, e.g. [784, 512, 512, 10].
	Sizes []int
	// Sync is BSP or ASP.
	Sync model.SyncMode
	// Workers and Servers are the cluster shape.
	Workers int
	Servers int
	// Dataset is the shared training set, sharded across workers.
	Dataset *data.Set
	// Batch is the per-worker mini-batch size.
	Batch int
	// Iterations is the per-worker iteration count.
	Iterations int
	// LR is the server-side learning rate.
	LR float64
	// Optimizer selects the server-side update rule: "sgd" (default),
	// "momentum", or "adam".
	Optimizer string
	// MaxStaleness, when > 0 with ASP, enforces the SSP staleness bound.
	MaxStaleness int
	// Seed controls initialization and shuffling.
	Seed int64
}

// JobResult collects the outcome of a local job.
type JobResult struct {
	// WorkerStats holds each worker's run summary.
	WorkerStats []*WorkerStats
	// ServerStats holds each shard's counters.
	ServerStats []ServerStats
	// FinalModel is a replica loaded with the final parameters.
	FinalModel *nn.MLP
	// TrainAccuracy is the final model's accuracy on the full dataset.
	TrainAccuracy float64
	// MeanFinalLoss averages the last mini-batch loss across workers.
	MeanFinalLoss float64
	// MeanInitialLoss averages the first mini-batch loss across workers.
	MeanInitialLoss float64
}

// RunLocalJob launches the shards and workers and waits for completion.
func RunLocalJob(cfg JobConfig) (*JobResult, error) {
	if cfg.Workers < 1 || cfg.Servers < 1 {
		return nil, fmt.Errorf("ps: job needs >=1 worker and server, got %d/%d", cfg.Workers, cfg.Servers)
	}
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("ps: job has no dataset")
	}
	// Every replica, and the reference model, starts from the same seed,
	// so all of them are initialized identically.
	newMLP := func() (*nn.MLP, error) {
		return nn.NewMLP(cfg.Sizes, rand.New(rand.NewSource(cfg.Seed)))
	}
	ref, err := newMLP()
	if err != nil {
		return nil, err
	}
	numParams := ref.NumParams()
	if cfg.Servers > numParams {
		return nil, fmt.Errorf("ps: %d shards for %d parameters", cfg.Servers, numParams)
	}
	flat := make([]float64, numParams)
	if err := ref.FlattenParams(flat); err != nil {
		return nil, err
	}

	// Launch shards.
	servers := make([]*Server, cfg.Servers)
	addrs := make([]string, cfg.Servers)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	for k := 0; k < cfg.Servers; k++ {
		lo, hi := ShardRange(numParams, k, cfg.Servers)
		opt, err := NewOptimizer(cfg.Optimizer, cfg.LR)
		if err != nil {
			return nil, err
		}
		srv, err := NewServer(ServerConfig{
			Init:         flat[lo:hi],
			Sync:         cfg.Sync,
			Workers:      cfg.Workers,
			LR:           cfg.LR,
			Optimizer:    opt,
			MaxStaleness: cfg.MaxStaleness,
		})
		if err != nil {
			return nil, err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		servers[k] = srv
		addrs[k] = addr
	}

	// Launch workers.
	type outcome struct {
		stats *WorkerStats
		err   error
	}
	results := make([]outcome, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		shard, err := cfg.Dataset.Shard(w, cfg.Workers)
		if err != nil {
			return nil, err
		}
		replica, err := newMLP()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(w int, replica *nn.MLP, shard *data.Set) {
			defer wg.Done()
			stats, err := RunWorker(WorkerConfig{
				ID:         w,
				Servers:    addrs,
				Model:      replica,
				Train:      shard,
				Batch:      cfg.Batch,
				Iterations: cfg.Iterations,
				Seed:       cfg.Seed + int64(w)*7919,
			})
			results[w] = outcome{stats: stats, err: err}
		}(w, replica, shard)
	}
	wg.Wait()

	res := &JobResult{}
	for w, oc := range results {
		if oc.err != nil {
			return nil, fmt.Errorf("ps: worker %d failed: %w", w, oc.err)
		}
		res.WorkerStats = append(res.WorkerStats, oc.stats)
	}

	// Assemble the final model from the shards.
	final := make([]float64, numParams)
	for k, srv := range servers {
		lo, hi := ShardRange(numParams, k, cfg.Servers)
		copy(final[lo:hi], srv.Params())
		res.ServerStats = append(res.ServerStats, srv.Stats())
	}
	fm, err := newMLP()
	if err != nil {
		return nil, err
	}
	if err := fm.SetParams(final); err != nil {
		return nil, err
	}
	res.FinalModel = fm
	res.TrainAccuracy = fm.Accuracy(cfg.Dataset.X, cfg.Dataset.Labels)

	first, last := 0.0, 0.0
	for _, ws := range res.WorkerStats {
		if len(ws.Losses) > 0 {
			first += ws.Losses[0]
			last += ws.Losses[len(ws.Losses)-1]
		}
	}
	res.MeanInitialLoss = first / float64(cfg.Workers)
	res.MeanFinalLoss = last / float64(cfg.Workers)
	return res, nil
}

// GlobalLossCurve averages the per-iteration losses across workers,
// producing one curve comparable to the paper's Fig. 4.
func (r *JobResult) GlobalLossCurve() []float64 {
	maxLen := 0
	for _, ws := range r.WorkerStats {
		if len(ws.Losses) > maxLen {
			maxLen = len(ws.Losses)
		}
	}
	out := make([]float64, maxLen)
	counts := make([]int, maxLen)
	for _, ws := range r.WorkerStats {
		for i, l := range ws.Losses {
			out[i] += l
			counts[i]++
		}
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i])
		}
	}
	return out
}
