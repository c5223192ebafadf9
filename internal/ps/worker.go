package ps

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"cynthia/internal/data"
	"cynthia/internal/nn"
)

// Default worker network timeouts. The I/O timeout bounds every frame
// read and write, so it must comfortably exceed the longest legitimate
// stall — a BSP barrier held open by the slowest worker.
const (
	DefaultDialTimeout = 10 * time.Second
	DefaultIOTimeout   = 2 * time.Minute
)

// WorkerConfig configures one training worker.
type WorkerConfig struct {
	// ID is the worker index in [0, cluster workers).
	ID int
	// Servers are the PS shard addresses, in shard order.
	Servers []string
	// Model is the worker's local replica; its parameter layout defines
	// the flat vector the shards partition.
	Model *nn.MLP
	// Train is this worker's data shard.
	Train *data.Set
	// Batch is the per-worker mini-batch size.
	Batch int
	// Iterations is how many local iterations to run.
	Iterations int
	// Seed drives batch shuffling.
	Seed int64
	// DialTimeout bounds the TCP connect to each shard, so a blackholed
	// address fails the worker instead of hanging it. 0 selects
	// DefaultDialTimeout; negative disables the timeout.
	DialTimeout time.Duration
	// IOTimeout bounds each frame write and read on a shard connection
	// (a server that accepts but never replies trips it). 0 selects
	// DefaultIOTimeout; negative disables deadlines.
	IOTimeout time.Duration
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	ID         int
	Iterations int
	// Losses holds the local mini-batch loss per iteration.
	Losses []float64
	// Staleness holds, per iteration, how many parameter updates by
	// other workers landed on shard 0 between this worker's consecutive
	// synchronizations — the paper's ASP parameter staleness. BSP rounds
	// advance the version exactly once between a worker's syncs, so BSP
	// staleness is identically 0.
	Staleness []int
	// BytesSent and BytesReceived count wire traffic.
	BytesSent     int64
	BytesReceived int64

	lastVersion uint32
	haveVersion bool
}

// MeanStaleness averages the per-iteration staleness.
func (s *WorkerStats) MeanStaleness() float64 {
	if len(s.Staleness) == 0 {
		return 0
	}
	total := 0
	for _, v := range s.Staleness {
		total += v
	}
	return float64(total) / float64(len(s.Staleness))
}

// shardConn is one live connection to a PS shard. Every frame written or
// read through it carries a fresh deadline of timeout (when positive).
type shardConn struct {
	conn    net.Conn
	lo, hi  int
	timeout time.Duration
}

func (sc *shardConn) write(typ byte, payload []byte) error {
	if sc.timeout > 0 {
		if err := sc.conn.SetWriteDeadline(time.Now().Add(sc.timeout)); err != nil {
			return err
		}
	}
	return writeFrame(sc.conn, typ, payload)
}

func (sc *shardConn) read() (byte, []byte, error) {
	if sc.timeout > 0 {
		if err := sc.conn.SetReadDeadline(time.Now().Add(sc.timeout)); err != nil {
			return 0, nil, err
		}
	}
	return readFrame(sc.conn)
}

// RunWorker connects to every PS shard, pulls the initial parameters, and
// runs the training loop: compute gradients on a local mini-batch, push
// them, and continue with the parameters the shards hand back. With BSP
// servers the sync blocks on the round barrier, giving true bulk
// synchrony; with ASP servers it returns immediately.
func RunWorker(cfg WorkerConfig) (*WorkerStats, error) {
	if cfg.Model == nil || cfg.Train == nil {
		return nil, fmt.Errorf("ps: worker %d missing model or data", cfg.ID)
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("ps: worker %d has no servers", cfg.ID)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("ps: worker %d iterations %d < 1", cfg.ID, cfg.Iterations)
	}
	numParams := cfg.Model.NumParams()
	stats := &WorkerStats{ID: cfg.ID}
	dialTimeout := cfg.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = DefaultDialTimeout
	}
	ioTimeout := cfg.IOTimeout
	if ioTimeout == 0 {
		ioTimeout = DefaultIOTimeout
	}

	shards := make([]*shardConn, len(cfg.Servers))
	defer func() {
		for _, sc := range shards {
			if sc != nil {
				_ = sc.write(msgBye, nil)
				sc.conn.Close()
			}
		}
	}()
	for k, addr := range cfg.Servers {
		var conn net.Conn
		var err error
		if dialTimeout > 0 {
			conn, err = net.DialTimeout("tcp", addr, dialTimeout)
		} else {
			conn, err = net.Dial("tcp", addr)
		}
		if err != nil {
			return nil, fmt.Errorf("ps: worker %d dialing shard %d: %w", cfg.ID, k, err)
		}
		lo, hi := ShardRange(numParams, k, len(cfg.Servers))
		sc := &shardConn{conn: conn, lo: lo, hi: hi, timeout: ioTimeout}
		shards[k] = sc
		hello := encodeHello(cfg.ID, hi-lo)
		if err := sc.write(msgHello, hello); err != nil {
			return nil, fmt.Errorf("ps: worker %d hello to shard %d: %w", cfg.ID, k, err)
		}
		stats.BytesSent += int64(len(hello) + 5)
	}

	flat := make([]float64, numParams)
	grad := make([]float64, numParams)

	// Initial pull: zero-length gradient fetches current parameters.
	if err := syncAll(shards, 0, nil, flat, stats); err != nil {
		return nil, fmt.Errorf("ps: worker %d initial pull: %w", cfg.ID, err)
	}
	if err := cfg.Model.SetParams(flat); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	batcher, err := data.NewBatcher(cfg.Train, cfg.Batch, rng)
	if err != nil {
		return nil, fmt.Errorf("ps: worker %d: %w", cfg.ID, err)
	}

	for it := 0; it < cfg.Iterations; it++ {
		x, labels := batcher.Next()
		lossVal, err := cfg.Model.LossAndGradFlat(x, labels, grad)
		if err != nil {
			return nil, fmt.Errorf("ps: worker %d iteration %d: %w", cfg.ID, it, err)
		}
		stats.Losses = append(stats.Losses, lossVal)
		if err := syncAll(shards, uint32(it+1), grad, flat, stats); err != nil {
			return nil, fmt.Errorf("ps: worker %d sync %d: %w", cfg.ID, it, err)
		}
		if err := cfg.Model.SetParams(flat); err != nil {
			return nil, err
		}
		stats.Iterations++
	}
	return stats, nil
}

// syncAll pushes each shard's slice of grad (or a pure fetch when grad is
// nil) and reassembles the returned parameters into flat. Pushes go out to
// every shard before any reply is read, so a BSP barrier on one shard
// cannot deadlock the others.
func syncAll(shards []*shardConn, step uint32, grad, flat []float64, stats *WorkerStats) error {
	for _, sc := range shards {
		var payload []byte
		if grad == nil {
			payload = encodeFloats(step, nil)
		} else {
			payload = encodeFloats(step, grad[sc.lo:sc.hi])
		}
		if err := sc.write(msgSync, payload); err != nil {
			return err
		}
		stats.BytesSent += int64(len(payload) + 5)
	}
	for k, sc := range shards {
		typ, payload, err := sc.read()
		if err != nil {
			return err
		}
		stats.BytesReceived += int64(len(payload) + 5)
		switch typ {
		case msgParams:
			version, xs, err := decodeFloats(payload)
			if err != nil {
				return err
			}
			if k == 0 {
				// Staleness on shard 0: updates by other workers since
				// this worker's previous synchronization. The initial
				// parameter fetch only seeds the baseline version.
				if grad != nil && stats.haveVersion && version > stats.lastVersion {
					stats.Staleness = append(stats.Staleness, int(version-stats.lastVersion)-1)
				}
				stats.lastVersion = version
				stats.haveVersion = true
			}
			if len(xs) != sc.hi-sc.lo {
				return fmt.Errorf("ps: shard returned %d params, want %d", len(xs), sc.hi-sc.lo)
			}
			copy(flat[sc.lo:sc.hi], xs)
		case msgError:
			return fmt.Errorf("ps: server error: %s", payload)
		default:
			return fmt.Errorf("ps: unexpected reply type %d", typ)
		}
	}
	return nil
}
