package ps

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/tensor"
)

// ServerConfig configures one parameter-server shard.
type ServerConfig struct {
	// Init is the shard's initial parameter values (copied).
	Init []float64
	// Sync selects BSP (barrier + gradient averaging per round) or ASP
	// (apply each push immediately).
	Sync model.SyncMode
	// Workers is the number of workers that will connect. Required for
	// the BSP barrier; for ASP it only validates hello messages.
	Workers int
	// LR is the SGD learning rate applied on the server (used when
	// Optimizer is nil).
	LR float64
	// Optimizer overrides plain SGD; momentum/Adam state lives on the
	// shard, as in production PS deployments.
	Optimizer Optimizer
	// MaxStaleness, when > 0 with ASP, enforces stale synchronous
	// parallel (SSP): a worker at local step c blocks until the slowest
	// worker reaches step c - MaxStaleness. This is the bounded
	// staleness under which asynchronous SGD provably converges (Ho et
	// al., cited by the paper as the reason ASP training still
	// converges). Ignored for BSP, which is SSP with bound 0 by
	// construction.
	MaxStaleness int
	// Obs receives the shard's metrics (push/apply counters, bytes
	// moved, push latency, barrier wait, and staleness histograms). Nil
	// selects obs.Default(); shards sharing a registry aggregate.
	Obs *obs.Registry
}

// ServerStats are cumulative counters, safe to read while serving.
type ServerStats struct {
	Pushes   int64 // gradient messages received
	Applies  int64 // SGD updates applied (rounds for BSP, pushes for ASP)
	BytesIn  int64
	BytesOut int64
}

// serverMetrics are the shard's registry-backed collectors, resolved once
// at construction so the serve loop never touches the registry map.
type serverMetrics struct {
	pushes      *obs.Counter
	applies     *obs.Counter
	pushBytes   *obs.Counter
	pullBytes   *obs.Counter
	pushLatency *obs.Histogram
	barrierWait *obs.Histogram
	staleness   *obs.Histogram
	conns       *obs.Gauge
	version     *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return serverMetrics{
		pushes:    reg.Counter("cynthia_ps_push_total", "gradient push messages received"),
		applies:   reg.Counter("cynthia_ps_apply_total", "optimizer updates applied (rounds for BSP, pushes for ASP)"),
		pushBytes: reg.Counter("cynthia_ps_push_bytes_total", "bytes received from workers"),
		pullBytes: reg.Counter("cynthia_ps_pull_bytes_total", "bytes sent back to workers"),
		pushLatency: reg.Histogram("cynthia_ps_push_latency_seconds",
			"time from receiving a sync message to the reply hitting the wire (includes barrier wait)", nil),
		barrierWait: reg.Histogram("cynthia_ps_barrier_wait_seconds",
			"time a worker blocked on the BSP barrier or the SSP staleness bound", nil),
		staleness: reg.Histogram("cynthia_ps_staleness_updates",
			"ASP parameter staleness: updates by other workers between a worker's consecutive syncs",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64}),
		conns:   reg.Gauge("cynthia_ps_worker_connections", "currently connected workers"),
		version: reg.Gauge("cynthia_ps_version", "number of applied parameter updates"),
	}
}

// Server is one PS shard: it owns a contiguous slice of the flat model
// parameter vector, aggregates gradients, applies SGD, and hands back
// fresh parameters. A server never needs the model structure — exactly
// like a production PS, it sees only flat vectors.
type Server struct {
	cfg ServerConfig

	mu      sync.Mutex
	cond    *sync.Cond
	params  []float64
	version uint64    // increments per apply
	pending []float64 // BSP: sum of this round's gradients
	nPushed int       // BSP: pushes received this round
	clocks  []uint32  // SSP: last reported step per worker
	closed  bool
	opt     Optimizer

	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup // accept loop + live handle goroutines

	// Per-shard counters behind Stats(); the registry-backed metrics in m
	// aggregate across shards that share a registry.
	pushes, applies, bytesIn, bytesOut atomic.Int64
	m                                  serverMetrics
	// lastServed tracks, per worker, the parameter version of the last
	// reply, for the ASP staleness distribution. Guarded by mu; served
	// marks workers with a baseline.
	lastServed []uint64
	served     []bool
}

// NewServer validates the configuration and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.Init) == 0 {
		return nil, fmt.Errorf("ps: empty initial parameters")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("ps: worker count %d < 1", cfg.Workers)
	}
	opt := cfg.Optimizer
	if opt == nil {
		if cfg.LR <= 0 {
			return nil, fmt.Errorf("ps: learning rate %v <= 0", cfg.LR)
		}
		opt = &SGD{LR: cfg.LR}
	}
	if cfg.MaxStaleness < 0 {
		return nil, fmt.Errorf("ps: negative staleness bound %d", cfg.MaxStaleness)
	}
	s := &Server{
		cfg:        cfg,
		params:     append([]float64(nil), cfg.Init...),
		pending:    make([]float64, len(cfg.Init)),
		clocks:     make([]uint32, cfg.Workers),
		conns:      make(map[net.Conn]struct{}),
		opt:        opt,
		m:          newServerMetrics(cfg.Obs),
		lastServed: make([]uint64, cfg.Workers),
		served:     make([]bool, cfg.Workers),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address. Serve loops run in the background. A
// server listens at most once: a second call returns an error instead of
// silently orphaning the first accept loop.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errClosed
	}
	if s.ln != nil {
		bound := s.ln.Addr().String()
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("ps: already listening on %s", bound)
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1) // under mu: Close cannot Wait between the add and the spawn
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// StopAccepting closes the listener so no new worker can connect; live
// connections keep serving. Safe to call repeatedly and before Listen.
func (s *Server) StopAccepting() {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close() // double-close returns an error we don't care about
	}
}

// Drain stops accepting and waits until every live worker connection has
// disconnected on its own, or ctx expires. It never tears down a live
// connection — that is Close's job — so a bounded graceful shutdown is
// Drain with a deadline followed by Close.
func (s *Server) Drain(ctx context.Context) error {
	s.StopAccepting()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ps: %d connections still live: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

// Close stops the listener, wakes barrier waiters, closes connections, and
// blocks until the accept loop and every handle goroutine have drained —
// after Close returns, the server has no goroutines left.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Pushes:   s.pushes.Load(),
		Applies:  s.applies.Load(),
		BytesIn:  s.bytesIn.Load(),
		BytesOut: s.bytesOut.Load(),
	}
}

// Params returns a copy of the current shard parameters.
func (s *Server) Params() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.params...)
}

// handle serves one worker connection.
func (s *Server) handle(conn net.Conn) {
	s.m.conns.Add(1)
	defer func() {
		s.m.conns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	fail := func(err error) {
		_ = writeFrame(conn, msgError, []byte(err.Error()))
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return
	}
	s.bytesIn.Add(int64(len(payload) + 5))
	s.m.pushBytes.Add(int64(len(payload) + 5))
	if typ != msgHello {
		fail(fmt.Errorf("ps: expected hello, got type %d", typ))
		return
	}
	workerID, shardLen, err := decodeHello(payload)
	if err != nil {
		fail(err)
		return
	}
	if shardLen != len(s.params) {
		fail(fmt.Errorf("ps: worker %d expects shard of %d params, server holds %d",
			workerID, shardLen, len(s.params)))
		return
	}
	if workerID < 0 || workerID >= s.cfg.Workers {
		fail(fmt.Errorf("ps: worker id %d out of range [0,%d)", workerID, s.cfg.Workers))
		return
	}

	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		s.bytesIn.Add(int64(len(payload) + 5))
		s.m.pushBytes.Add(int64(len(payload) + 5))
		switch typ {
		case msgBye:
			return
		case msgSync:
			recv := time.Now()
			step, grad, err := decodeFloats(payload)
			if err != nil {
				fail(err)
				return
			}
			params, version, err := s.sync(workerID, step, grad)
			if err != nil {
				if errors.Is(err, errClosed) {
					return
				}
				fail(err)
				return
			}
			// The reply's step field carries the server version so
			// workers can measure parameter staleness.
			reply := encodeFloats(uint32(version), params)
			if err := writeFrame(conn, msgParams, reply); err != nil {
				return
			}
			s.bytesOut.Add(int64(len(reply) + 5))
			s.m.pullBytes.Add(int64(len(reply) + 5))
			s.m.pushLatency.Observe(time.Since(recv).Seconds())
		default:
			fail(fmt.Errorf("ps: unexpected message type %d", typ))
			return
		}
	}
}

var errClosed = errors.New("ps: server closed")

// sync processes one gradient push and returns the parameters the worker
// should continue with. A zero-length gradient is a pure fetch. step is
// the worker's local iteration clock, used for the SSP staleness bound.
func (s *Server) sync(workerID int, step uint32, grad []float64) ([]float64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, errClosed
	}
	if len(grad) == 0 {
		return append([]float64(nil), s.params...), s.version, nil
	}
	if len(grad) != len(s.params) {
		return nil, 0, fmt.Errorf("ps: gradient of %d values for %d params", len(grad), len(s.params))
	}
	s.pushes.Add(1)
	s.m.pushes.Inc()

	if s.cfg.Sync == model.ASP {
		// Apply immediately. An optimizer error means its state no longer
		// matches the shard (a misconfigured or reused cfg.Optimizer):
		// mark the shard closed rather than keep serving parameters the
		// optimizer can no longer update.
		if err := s.opt.Apply(s.params, grad); err != nil {
			s.closed = true
			s.cond.Broadcast()
			return nil, 0, err
		}
		s.version++
		s.applies.Add(1)
		s.m.applies.Inc()
		s.m.version.Set(float64(s.version))
		// Staleness distribution: updates applied by other workers since
		// this worker's previous sync (its own apply is excluded).
		if workerID >= 0 && workerID < len(s.lastServed) {
			if s.served[workerID] {
				s.m.staleness.Observe(float64(s.version - s.lastServed[workerID] - 1))
			}
			s.lastServed[workerID] = s.version
			s.served[workerID] = true
		}
		if workerID >= 0 && workerID < len(s.clocks) && step > s.clocks[workerID] {
			s.clocks[workerID] = step
			s.cond.Broadcast() // a slow worker advancing may release others
		}
		// SSP: block the reply while this worker is too far ahead of the
		// slowest (Close releases waiters).
		if s.cfg.MaxStaleness > 0 {
			waitStart := time.Now()
			for !s.closed && s.minClock()+uint32(s.cfg.MaxStaleness) < step {
				s.cond.Wait()
			}
			s.m.barrierWait.Observe(time.Since(waitStart).Seconds())
			if s.closed {
				return nil, 0, errClosed
			}
		}
		return append([]float64(nil), s.params...), s.version, nil
	}

	// BSP: accumulate; the last worker of the round applies the averaged
	// gradient and releases the barrier.
	tensor.Axpy(1, grad, s.pending)
	s.nPushed++
	myRound := s.version
	if s.nPushed == s.cfg.Workers {
		tensor.Scale(1/float64(s.cfg.Workers), s.pending)
		// See the ASP branch: an optimizer error poisons the shard, and
		// closing also releases the other workers parked on this barrier.
		if err := s.opt.Apply(s.params, s.pending); err != nil {
			s.closed = true
			s.cond.Broadcast()
			return nil, 0, err
		}
		for i := range s.pending {
			s.pending[i] = 0
		}
		s.nPushed = 0
		s.version++
		s.applies.Add(1)
		s.m.applies.Inc()
		s.m.version.Set(float64(s.version))
		s.m.barrierWait.Observe(0) // the round-closing worker never waits
		s.cond.Broadcast()
	} else {
		waitStart := time.Now()
		for s.version == myRound && !s.closed {
			s.cond.Wait()
		}
		s.m.barrierWait.Observe(time.Since(waitStart).Seconds())
		if s.closed {
			return nil, 0, errClosed
		}
	}
	return append([]float64(nil), s.params...), s.version, nil
}

// minClock returns the slowest worker's reported step. Callers hold mu.
func (s *Server) minClock() uint32 {
	if len(s.clocks) == 0 {
		return 0
	}
	min := s.clocks[0]
	for _, c := range s.clocks[1:] {
		if c < min {
			min = c
		}
	}
	return min
}
