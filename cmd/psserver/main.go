// Command psserver runs one real parameter-server shard over TCP.
//
// The shard owns slice k of the flat parameter vector of an MLP with the
// given layer sizes; workers (cmd/psworker) connect, push gradients, and
// pull parameters. BSP mode barriers each round across -workers workers;
// ASP applies every push immediately.
//
// Usage:
//
//	psserver -addr :7070 -sizes 784,512,512,10 -shard 0 -shards 2 -workers 4 -sync bsp -lr 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cynthia/internal/model"
	"cynthia/internal/nn"
	"cynthia/internal/obs"
	"cynthia/internal/ps"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		sizes     = flag.String("sizes", "784,512,512,10", "comma-separated MLP layer sizes")
		shard     = flag.Int("shard", 0, "this shard's index")
		shards    = flag.Int("shards", 1, "total number of shards")
		workers   = flag.Int("workers", 1, "number of workers (BSP barrier width)")
		sync      = flag.String("sync", "bsp", "synchronization: bsp or asp")
		lr        = flag.Float64("lr", 0.1, "learning rate")
		optimizer = flag.String("optimizer", "sgd", "update rule: sgd, momentum, or adam")
		staleness = flag.Int("staleness", 0, "SSP staleness bound for asp (0 = unbounded)")
		seed      = flag.Int64("seed", 1, "parameter initialization seed (must match workers)")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug/snapshot on this address (empty = disabled)")
		pprofOn   = flag.Bool("pprof", false, "also serve net/http/pprof profiles under /debug/pprof/ on the -metrics address")
	)
	flag.Parse()
	if err := run(*addr, *sizes, *shard, *shards, *workers, *sync, *optimizer, *staleness, *lr, *seed, *metrics, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "psserver:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad layer size %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// serveMetrics exposes the registry's /metrics and /debug/snapshot
// endpoints on addr in a background goroutine, plus the net/http/pprof
// profiles when pprofOn is set. It returns the bound address and a closer
// for the listener.
func serveMetrics(addr string, reg *obs.Registry, pprofOn bool) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	handler := http.Handler(obs.Mux(reg))
	if pprofOn {
		runtime.SetBlockProfileRate(1)
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("psserver: metrics server: %v", err)
		}
	}()
	return ln.Addr().String(), srv.Close, nil
}

func run(addr, sizesStr string, shard, shards, workers int, syncStr, optName string, staleness int, lr float64, seed int64, metricsAddr string, pprofOn bool) error {
	sizes, err := parseSizes(sizesStr)
	if err != nil {
		return err
	}
	var mode model.SyncMode
	switch strings.ToLower(syncStr) {
	case "bsp":
		mode = model.BSP
	case "asp":
		mode = model.ASP
	default:
		return fmt.Errorf("unknown sync mode %q", syncStr)
	}
	if shard < 0 || shard >= shards {
		return fmt.Errorf("shard %d out of range [0,%d)", shard, shards)
	}
	// Initialize the full parameter vector from the shared seed and carve
	// out this shard.
	ref, err := nn.NewMLP(sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	flat := make([]float64, ref.NumParams())
	if err := ref.FlattenParams(flat); err != nil {
		return err
	}
	lo, hi := ps.ShardRange(ref.NumParams(), shard, shards)

	opt, err := ps.NewOptimizer(optName, lr)
	if err != nil {
		return err
	}
	srv, err := ps.NewServer(ps.ServerConfig{
		Init:         flat[lo:hi],
		Sync:         mode,
		Workers:      workers,
		LR:           lr,
		Optimizer:    opt,
		MaxStaleness: staleness,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Printf("psserver: shard %d/%d (%d params) listening on %s, %s, %d workers, lr=%g\n",
		shard, shards, hi-lo, bound, mode, workers, lr)
	if metricsAddr != "" {
		mBound, closeMetrics, err := serveMetrics(metricsAddr, obs.Default(), pprofOn)
		if err != nil {
			// Observability must not take the shard down: warn and serve
			// parameters anyway.
			log.Printf("psserver: cannot serve metrics on %s: %v", metricsAddr, err)
		} else {
			defer closeMetrics()
			fmt.Printf("psserver: metrics on http://%s/metrics (snapshot at /debug/snapshot)\n", mBound)
			if pprofOn {
				fmt.Printf("psserver: pprof profiles on http://%s/debug/pprof/\n", mBound)
			}
		}
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	awaitShutdown(srv, sig, drainTimeout)
	return nil
}

// drainTimeout bounds how long shutdown waits for live worker
// connections to finish their rounds after the listener closes.
const drainTimeout = 30 * time.Second

// awaitShutdown blocks until the first signal, then shuts down
// gracefully: the listener closes so no new worker can connect, live
// workers get up to timeout to finish and disconnect on their own, and
// only then are the leftovers torn down. A second signal cuts the drain
// short and forces immediate teardown.
func awaitShutdown(srv *ps.Server, sig <-chan os.Signal, timeout time.Duration) {
	<-sig
	fmt.Println("psserver: signal received, draining workers (second signal forces shutdown)")
	dctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	go func() {
		select {
		case <-sig:
			cancel()
		case <-dctx.Done():
		}
	}()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("psserver: drain cut short: %v", err)
	}
	stats := srv.Stats()
	srv.Close()
	fmt.Printf("psserver: shutting down after %d pushes, %d applies, %d bytes in, %d bytes out\n",
		stats.Pushes, stats.Applies, stats.BytesIn, stats.BytesOut)
}
