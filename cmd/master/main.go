// Command master runs the Cynthia control plane: the Kubernetes-like
// master with its HTTP API, wired to the simulated cloud provider.
//
// Usage:
//
//	master -addr 127.0.0.1:8080 [-gpu] [-state-dir /var/lib/cynthia]
//
// With -state-dir the control plane is crash-durable: every
// flight-recorder event is written ahead to a segmented WAL and the
// world is snapshotted at each durability barrier. A restarted master
// recovers the snapshot plus the log tail, re-enqueues queued jobs, and
// resumes in-flight jobs from their last barrier.
//
// Then drive it with cmd/cynthiactl or curl:
//
//	curl -X POST 127.0.0.1:8080/api/jobs \
//	  -d '{"workload": "cifar10 DNN", "deadline_sec": 5400, "loss_target": 0.8}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/cluster/replay"
	"cynthia/internal/obs/journal"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		gpu      = flag.Bool("gpu", false, "use the extended CPU+GPU catalog")
		pprofOn  = flag.Bool("pprof", false, "serve net/http/pprof profiles (CPU, heap, goroutine, block) under /debug/pprof/")
		stateDir = flag.String("state-dir", "", "durable state directory (WAL + snapshots); restart recovers and resumes jobs from it")
	)
	flag.Parse()
	if err := run(*addr, *gpu, *pprofOn, *stateDir); err != nil {
		fmt.Fprintln(os.Stderr, "master:", err)
		os.Exit(1)
	}
}

// setup assembles the control plane — master, provider, controller, HTTP
// API — and returns the route handler plus the join credentials the
// banner prints. Split from run so tests can serve the handler from
// httptest instead of a real listener. With pprofOn the debug mux also
// serves the net/http/pprof profiles (and enables block profiling).
//
// A non-empty stateDir makes the control plane durable: the journal
// writes ahead to a WAL in that directory, the controller snapshots the
// world at durability barriers, and — when the directory already holds
// state — the world is rebuilt from it and every unfinished job goes back
// on the workqueue: in-flight jobs resume from their last barrier, queued
// ones start from the top. The returned manager is nil without a state
// dir; with one, the caller owns its final snapshot and Close on
// shutdown.
func setup(gpu, pprofOn bool, stateDir string) (http.Handler, *cluster.API, *cluster.Master, *cloud.Catalog, *replay.Manager, error) {
	master, err := cluster.NewMaster()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	catalog := cloud.DefaultCatalog()
	if gpu {
		catalog = cloud.ExtendedCatalog()
	}
	var (
		mgr   *replay.Manager
		clock cloud.Clock
	)
	if stateDir != "" {
		mgr, err = replay.Open(stateDir, replay.Options{Mode: replay.ModeResume})
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		if snap := mgr.Snapshot(); snap != nil {
			// Resume the provider clock from the snapshot instead of
			// rewinding to zero, which would re-bill every instance.
			clock = cloud.WallClockFrom(snap.Provider.ClockSec)
		}
	}
	provider := cloud.NewProvider(catalog, clock)
	if mgr != nil {
		// Durable flight recorder: every event is framed into the WAL by
		// the manager sink before the in-memory ring can evict it.
		master.SetJournal(journal.New(journal.DefaultCapacity, journal.WithSink(mgr)), nil)
	}
	// The flight recorder spans the whole control plane: the provider
	// appends instance lifecycle events to the master's journal.
	provider.SetJournal(master.Journal())
	controller := cluster.NewController(master, provider, nil, "")
	if mgr != nil {
		controller.Durability = mgr
		mgr.Attach(controller, master, provider, master.Journal())
		resume, queued, err := mgr.Rebuild()
		if err != nil {
			mgr.Close()
			return nil, nil, nil, nil, nil, err
		}
		// Requeue waits for queue space, so an error means the job cannot
		// run at all; refuse to serve rather than strand it. Resumed jobs
		// go first and, like queued ones, run on the workqueue, so
		// QueueWorkers bounds them and Drain waits for them.
		for _, id := range append(resume, queued...) {
			if err := controller.Requeue(id); err != nil {
				mgr.Close()
				return nil, nil, nil, nil, nil, fmt.Errorf("requeue %s after restart: %w", id, err)
			}
		}
	}
	api := cluster.NewAPI(master, controller)
	handler := http.Handler(api.Handler())
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
	return handler, api, master, catalog, mgr, nil
}

// drainTimeout bounds how long shutdown waits for in-flight and queued
// jobs after the listener closes.
const drainTimeout = 30 * time.Second

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so one that never finishes them cannot hold a connection.
const readHeaderTimeout = 10 * time.Second

func run(addr string, gpu, pprofOn bool, stateDir string) error {
	handler, api, master, catalog, mgr, err := setup(gpu, pprofOn, stateDir)
	if err != nil {
		return err
	}
	token, caHash := master.JoinCredentials()
	fmt.Printf("master: listening on %s (%d instance types)\n", addr, catalog.Len())
	fmt.Printf("master: nodes join with token %s, CA hash %s...\n", token, caHash[:23])
	if pprofOn {
		fmt.Printf("master: pprof profiles on http://%s/debug/pprof/\n", addr)
	}
	if mgr != nil {
		if mgr.HasState() {
			fmt.Printf("master: recovered durable state from %s (%d journaled events)\n", stateDir, len(mgr.RecoveredEvents()))
		} else {
			fmt.Printf("master: durable state in %s\n", stateDir)
		}
	}

	// SIGTERM/SIGINT stop the listener, then drain: in-flight HTTP
	// requests finish, queued jobs run to completion (bounded), and the
	// plan service shuts down.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Println("master: shutting down, draining in-flight jobs")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := api.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if mgr != nil {
		// Pin the drained world so the next boot restarts clean instead of
		// replaying the tail since the last barrier snapshot.
		if err := mgr.SnapshotNow(); err != nil {
			fmt.Fprintln(os.Stderr, "master: final snapshot:", err)
		}
		if err := mgr.Close(); err != nil {
			return fmt.Errorf("closing state dir: %w", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("master: drained, bye")
	return nil
}
