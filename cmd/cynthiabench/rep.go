package main

// One repetition of one workload: assemble the control plane in-process
// exactly as cmd/master does, serve it on a loopback listener, warm it up,
// drive the measured phase over HTTP, drain (and, when durable, restart),
// and check every answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/cluster/replay"
	"cynthia/internal/obs/journal"
	"cynthia/internal/obs/journal/wal"
	"cynthia/internal/perf"
	"cynthia/internal/plan/service"
)

// stack is one control plane behind a loopback listener.
type stack struct {
	api  *cluster.API
	mgr  *replay.Manager
	srv  *http.Server
	url  string
	done chan error
}

// startStack assembles master, provider, controller and API the way
// cmd/master's setup does; a non-empty stateDir adds the replay manager
// (WAL sink, barrier snapshots, Rebuild). A non-nil tracer installs the
// timing wrappers through the public seams.
func startStack(stateDir string, tr *tracer) (*stack, error) {
	master, err := cluster.NewMaster()
	if err != nil {
		return nil, err
	}
	var (
		mgr   *replay.Manager
		clock cloud.Clock
		sink  io.Writer
	)
	if stateDir != "" {
		if mgr, err = replay.Open(stateDir, replay.Options{Mode: replay.ModeResume}); err != nil {
			return nil, err
		}
		if snap := mgr.Snapshot(); snap != nil {
			clock = cloud.WallClockFrom(snap.Provider.ClockSec)
		}
		sink = mgr
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), clock)
	var (
		pred    perf.Predictor
		apiOpts []cluster.APIOption
	)
	if tr != nil {
		tr.tap.inner = sink
		sink = &tr.tap
		pred = predictor{t: tr}
	}
	if sink != nil {
		master.SetJournal(journal.New(journal.DefaultCapacity, journal.WithSink(sink)), nil)
	}
	provider.SetJournal(master.Journal())
	master.SetJournal(master.Journal(), provider.Now)
	controller := cluster.NewController(master, provider, pred, "")
	if tr != nil {
		controller.UseProvisioner(searcher{tr})
		apiOpts = append(apiOpts, cluster.WithPlanService(service.New(service.Config{
			Provisioner: searcher{tr},
			Catalog:     provider.Catalog(),
		})))
	}
	if mgr != nil {
		controller.Durability = mgr
		if tr != nil {
			controller.Durability = checkpointer{t: tr, inner: mgr}
		}
		mgr.Attach(controller, master, provider, master.Journal())
		resume, queued, err := mgr.Rebuild()
		if err == nil && len(resume)+len(queued) > 0 {
			// The bench only reopens a directory it drained, so nothing may
			// be left to run.
			err = fmt.Errorf("reopened state dir has %d jobs to resume and %d queued after a drain", len(resume), len(queued))
		}
		if err != nil {
			mgr.Close()
			return nil, err
		}
	}
	api := cluster.NewAPI(master, controller, apiOpts...)
	handler := api.Handler()
	if tr != nil {
		handler = tr.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if mgr != nil {
			mgr.Close()
		}
		return nil, err
	}
	s := &stack{api: api, mgr: mgr, srv: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts down like cmd/master on SIGTERM: close the listener, drain
// queued jobs and the plan service, pin the drained world in a final
// snapshot, close the state dir.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := []error{s.srv.Shutdown(ctx), s.api.Drain(ctx)}
	if s.mgr != nil {
		errs = append(errs, s.mgr.SnapshotNow(), s.mgr.Close())
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// send posts one body and reads the reply to the end, so the keep-alive
// connection is reused.
func send(c *http.Client, url string, body []byte, trace string) answer {
	var a answer
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		a.Err = err.Error()
		return a
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-ID", trace)
	a.Start = time.Now().UnixNano()
	resp, err := c.Do(req)
	if err != nil {
		a.End = time.Now().UnixNano()
		a.Err = err.Error()
		return a
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.End = time.Now().UnixNano()
	a.Code = resp.StatusCode
	if err != nil {
		a.Err = "reading reply: " + err.Error()
	} else if err := json.Unmarshal(data, &a.Reply); err != nil {
		a.Err = "decoding reply: " + err.Error()
	}
	return a
}

// drive runs the closed loop: each client takes the next request of the
// list and waits for its reply before taking another.
func drive(c *http.Client, url string, clients int, reqs []request) []answer {
	answers := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				answers[i] = send(c, url, reqs[i].Body, traceID(i))
			}
		}()
	}
	wg.Wait()
	return answers
}

// heapPeak samples the live heap every interval until the returned stop
// function is called, which reports the peak in bytes.
func heapPeak(every time.Duration) (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	read()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		read()
		return peak
	}
}

// runtimeCounters reads cumulative allocation and CPU counters.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// repResult is one repetition's outcome, passed from the child process to
// the parent as JSON.
type repResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	// Traced repetitions only: the per-layer self-time table, and the
	// per-op sums of every span's self time and of client latency.
	Layers      []layerRow `json:"layers,omitempty"`
	SelfSumMs   float64    `json:"self_sum_ms,omitempty"`
	ClientSumMs float64    `json:"client_sum_ms,omitempty"`
}

// setupRuns is how many times a repetition sets the stack up; setup_s is
// the median.
const setupRuns = 3

// setUp starts a stack and sends the warm-up quotes, one per workload in
// the mix; each must answer 2xx.
func setUp(s spec, stateDir string, tr *tracer, client *http.Client) (*stack, error) {
	st, err := startStack(stateDir, tr)
	if err != nil {
		return nil, err
	}
	for i, b := range s.warmups() {
		if a := send(client, st.url+routePlan, b, fmt.Sprintf("w%d", i)); a.Err != "" || a.Code/100 != 2 {
			return nil, errors.Join(fmt.Errorf("warm-up %s: HTTP %d %s", b, a.Code, a.Err), st.stop())
		}
	}
	return st, nil
}

// runRep runs one repetition. State dirs go under workDir; a traced
// repetition writes its Chrome trace to chromePath when that is set.
func runRep(s spec, seed int64, traced bool, workDir, chromePath string) (*repResult, error) {
	reqs := s.generate(seed)
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	stateDir := ""
	if s.Durable {
		stateDir = filepath.Join(workDir, fmt.Sprintf("state-%s-%d", s.Name, os.Getpid()))
		defer os.RemoveAll(stateDir)
	}
	client := newClient(s.Clients)
	defer client.CloseIdleConnections()

	// Set up several times and keep the last stack: one set-up takes a few
	// milliseconds, too short to time once.
	var (
		st     *stack
		setups []float64
	)
	for k := 0; k < setupRuns; k++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", k, err)
			}
		}
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if st, err = setUp(s, stateDir, tr, client); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	if tr != nil {
		tr.mu.Lock()
		tr.spans, tr.searches, tr.enumerated = nil, 0, 0
		tr.mu.Unlock()
		tr.predictCalls.Store(0)
		tr.tap.on.Store(true)
	}
	svc0 := st.api.PlanService().Stats()
	alloc0, gc0, cpu0 := runtimeCounters()
	stopHeap := heapPeak(50 * time.Millisecond)
	start := time.Now()
	answers := drive(client, st.url+s.Route, s.Clients, reqs)
	wall := time.Since(start)
	peak := stopHeap()
	alloc1, gc1, cpu1 := runtimeCounters()
	svc1 := st.api.PlanService().Stats()
	if tr != nil {
		tr.tap.on.Store(false)
	}

	// Without a state dir there is no snapshot and nothing to replay.
	m := map[string]float64{"replay.snapshot_kb": 0, "replay.restart_events": 0}
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if s.Durable {
		if err := measureRestart(stateDir, m); err != nil {
			return nil, err
		}
	}

	o := newOracle()
	problems := o.check(s, seed, reqs, answers)
	var lat []float64
	for _, a := range answers {
		if a.Err == "" && a.Code/100 == 2 {
			lat = append(lat, float64(a.End-a.Start)/1e6)
		}
	}
	ops := float64(len(reqs))
	m["setup_s"] = pct(setups, 50)
	m["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	m["lat_p50_ms"] = pct(lat, 50)
	m["lat_tail_ms"] = pct(lat, s.TailPct)
	m["heap_peak_mb"] = float64(peak) / 1e6
	m["fail_frac"] = float64(len(problems)) / ops
	m["plansvc.hit_ratio"] = ratio(float64(svc1.Hits-svc0.Hits), float64(svc1.Requests-svc0.Requests))
	m["plansvc.evictions"] = float64(svc1.Evictions - svc0.Evictions)
	m["plansvc.overloaded"] = float64(svc1.Overloaded - svc0.Overloaded)
	m["profile.ms"] = o.profileMedianMs()
	m["runtime.alloc_kb_per_op"] = (alloc1 - alloc0) / 1024 / ops
	m["runtime.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)

	res := &repResult{
		Workload:  s.Name,
		Traced:    traced,
		Attempted: len(reqs),
		Failed:    len(problems),
		Problems:  problems[:min(len(problems), 10)],
		Digest:    digest(answers),
		Metrics:   m,
	}
	if tr != nil {
		an, err := tr.analyze(traceInput{Route: s.Route, Requests: reqs, Answers: answers, Ops: len(reqs)})
		if err != nil {
			return nil, err
		}
		for k, v := range an.Metrics {
			m[k] = v
		}
		res.Layers, res.SelfSumMs, res.ClientSumMs = an.Layers, an.SelfSumMs, an.ClientSumMs
		if chromePath != "" {
			if err := an.writeChrome(chromePath); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// measureRestart records the drained state dir's size and newest snapshot,
// then times a restart over it: reopen, Rebuild, serve, first /healthz.
func measureRestart(dir string, m map[string]float64) error {
	size := 0.0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += float64(info.Size())
		}
		return err
	})
	if err != nil {
		return err
	}
	snap, _, err := wal.LatestSnapshot(dir)
	if err != nil {
		return fmt.Errorf("reading newest snapshot: %w", err)
	}
	m["disk_mb"] = size / 1e6
	m["replay.snapshot_kb"] = float64(len(snap)) / 1024

	start := time.Now()
	st, err := startStack(dir, nil)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	resp, err := http.Get(st.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	m["restart_s"] = time.Since(start).Seconds()
	m["replay.restart_events"] = float64(len(st.mgr.RecoveredEvents()))
	http.DefaultClient.CloseIdleConnections()
	return errors.Join(err, st.stop())
}
