package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"cynthia/internal/model"
)

// class is one kind of request in a workload's mix. A class with
// DeadlineLo == DeadlineHi is one fixed planning question; otherwise every
// request of the class gets its own deadline, stratified over the range so
// that any two seeds ask for nearly the same spread of deadlines and differ
// only in which deadline lands where in the request order.
type class struct {
	Workload   string  `json:"workload"`
	LossTarget float64 `json:"loss_target"`
	DeadlineLo float64 `json:"deadline_lo_sec"`
	DeadlineHi float64 `json:"deadline_hi_sec"`
	Weight     int     `json:"weight"`
}

// spec is one benchmark workload: a closed loop of Clients callers, each
// waiting for its reply, working through a fixed seeded list of Requests
// bodies posted to Route. A fixed count, not a duration, sets the work:
// durable cost grows with history, so a time-bounded run would do
// different work on a faster commit. There is no open-loop workload yet
// (see the README).
type spec struct {
	Name     string  `json:"name"`
	Why      string  `json:"why"`
	Route    string  `json:"route"`
	Clients  int     `json:"clients"`
	Requests int     `json:"requests"`
	TailPct  float64 `json:"tail_pct"`
	Durable  bool    `json:"durable"`
	Mix      []class `json:"mix"`
	// SampleEvery is how sparsely the oracle checks distinct quote keys:
	// every key at 1, one in SampleEvery otherwise (seeded).
	SampleEvery int `json:"oracle_sample_every"`
}

const (
	routePlan = "/api/plan"
	routeJobs = "/api/jobs"
)

// warmDeadline is the deadline of the set-up warm-up quotes. It lies
// outside every measured range, so warming the profile cache never
// pre-fills a plan-cache entry the measured phase will ask for.
const warmDeadline = 12600

// specs are the four workloads. The quote mixes reuse cmd/planload's
// skewed question set; the job mixes are sized so a repetition stays a few
// seconds on a 2-proc box.
var specs = []spec{
	{
		Name:  "quote-hot",
		Why:   "8 repeated quote keys against a 1024-entry plan cache: the API edge, JSON and the cache-hit path do the work; a search speed-up must not move it",
		Route: routePlan, Clients: 2, Requests: 30000, TailPct: 99,
		Mix: []class{
			{"cifar10 DNN", 0.8, 5400, 5400, 30},
			{"mnist DNN", 0.2, 1800, 1800, 30},
			{"cifar10 DNN", 0.8, 7200, 7200, 13},
			{"mnist DNN", 0.2, 3600, 3600, 12},
			{"cifar10 DNN", 0.8, 9000, 9000, 4},
			{"cifar10 DNN", 0.8, 10800, 10800, 4},
			{"mnist DNN", 0.2, 5400, 5400, 4},
			{"mnist DNN", 0.2, 7200, 7200, 3},
		},
		SampleEvery: 1,
	},
	{
		Name:  "quote-cold",
		Why:   "every quote body distinct, so the plan cache misses and evicts and plan.Engine plus the perf predictor run on each request",
		Route: routePlan, Clients: 2, Requests: 6000, TailPct: 99,
		Mix: []class{
			{"ResNet-32", 0.6, 1800, 10800, 1},
			{"mnist DNN", 0.2, 1800, 10800, 1},
			{"VGG-19", 0.8, 1800, 10800, 1},
			{"cifar10 DNN", 0.8, 1800, 10800, 1},
		},
		SampleEvery: 16,
	},
	{
		Name:  "jobs-wide",
		Why:   "synchronous jobs on wide BSP and ASP clusters against an in-memory master: the ddnnsim simulator and flow take most of the wall time",
		Route: routeJobs, Clients: 1, Requests: 40, TailPct: 75,
		// cifar10 DNN at loss 1.6 over [800, 1200] s plans 16-23 BSP
		// workers; ResNet-32 at loss 0.8 over [3000, 5400] s plans 12-37
		// ASP workers. Looser loss targets than planload's keep a job to
		// ~0.1-0.4 s of simulation, so a repetition fits in seconds.
		Mix: []class{
			{"cifar10 DNN", 1.6, 800, 1200, 2},
			{"ResNet-32", 0.8, 3000, 5400, 1},
		},
		SampleEvery: 1,
	},
	{
		Name:  "jobs-durable",
		Why:   "small synchronous jobs against a master with a state dir: journal appends to the WAL, barrier snapshots and the job queue do the work",
		Route: routeJobs, Clients: 2, Requests: 300, TailPct: 90,
		Durable: true,
		// [600, 2400] s plans 1-3 workers; from 2400 s up every deadline
		// plans the same single worker.
		Mix: []class{
			{"mnist DNN", 0.2, 600, 2400, 1},
		},
		SampleEvery: 1,
	},
}

// bsp reports whether the class's workload trains with BSP.
func (c class) bsp() bool {
	w, err := model.WorkloadByName(c.Workload)
	return err == nil && w.Sync == model.BSP
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// configHash identifies the benchmark configuration a result was measured
// under, so compare can refuse results from different configurations.
func configHash() string {
	data, err := json.Marshal(struct {
		Specs   []spec
		Metrics []metricDef
	}{specs, append(append([]metricDef(nil), endToEnd...), perLayer...)})
	if err != nil {
		panic(err) // static data
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// request is one generated request body, with its class for the oracle.
type request struct {
	Class    class
	Deadline float64
	Body     []byte
}

func body(workload string, deadline, loss float64) []byte {
	return []byte(`{"workload":` + strconv.Quote(workload) +
		`,"deadline_sec":` + strconv.FormatFloat(deadline, 'g', -1, 64) +
		`,"loss_target":` + strconv.FormatFloat(loss, 'g', -1, 64) + `}`)
}

// generate builds the workload's request list from the seed: each class
// gets its exact share of the requests, deadlines are stratified within a
// class's range, and the whole list is shuffled. The same seed always
// gives the same list.
func (s spec) generate(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, c := range s.Mix {
		total += c.Weight
	}
	var out []request
	for i, c := range s.Mix {
		n := s.Requests * c.Weight / total
		if i == len(s.Mix)-1 {
			n = s.Requests - len(out)
		}
		perm := rng.Perm(n)
		for k := 0; k < n; k++ {
			d := c.DeadlineLo
			if c.DeadlineHi > c.DeadlineLo {
				d += (c.DeadlineHi - c.DeadlineLo) * (float64(perm[k]) + rng.Float64()) / float64(n)
			}
			out = append(out, request{Class: c, Deadline: d, Body: body(c.Workload, d, c.LossTarget)})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmups are the set-up requests: one quote per workload in the mix, at
// warmDeadline. The first quote for a workload runs the lazy profile.Run
// that the controller caches for every later quote and job.
func (s spec) warmups() [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, c := range s.Mix {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			out = append(out, body(c.Workload, warmDeadline, c.LossTarget))
		}
	}
	return out
}

// metricDef describes one reported metric. End-to-end metrics carry the
// bound by which a change may worsen their median before it counts as a
// regression; per-layer metrics name their layer and the end-to-end
// metric (and workload) they should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Only restricts a metric to one workload; empty means every workload.
	Only  string `json:"only,omitempty"`
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
}

// The timing bounds are wide because on a shared 2-vCPU VM the medians of
// ten seeded runs spread by 5-31% (interquartile range over median) on
// the timing metrics; see the README.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	// fail_frac is 0 on a healthy run, so its bound is "any increase";
	// the driver's result line carries it as the failed count instead.
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "disk_mb", Unit: "MB", Better: "lower", Bound: 0.02, Only: "jobs-durable"},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: 0.25, Only: "jobs-durable"},
}

// driverEndToEnd are the end-to-end metrics BENCHMARK.json lists: those
// every workload reports and that never read 0.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Only == "" && m.Bound > 0 {
			out = append(out, m)
		}
	}
	return out
}

const (
	layerEdge    = "cluster (API edge)"
	layerCtl     = "cluster (controller)"
	layerSvc     = "plan/service"
	layerPlan    = "plan"
	layerPerf    = "perf"
	layerProfile = "profile"
	layerCloud   = "cloud"
	layerSim     = "ddnnsim (+flow)"
	layerJournal = "obs/journal"
	layerWAL     = "obs/journal/wal"
	layerReplay  = "cluster/replay"
	layerRuntime = "Go runtime"
	layerNet     = "net/http + loopback"
	layerBench   = "benchmark"
)

var perLayer = []metricDef{
	{Name: "api.handler_ms_p50", Unit: "ms", Better: "lower", Layer: layerEdge, Moves: "lat_p50_ms on quote-hot"},
	{Name: "api.client_gap_ms_p50", Unit: "ms", Better: "lower", Layer: layerNet, Moves: "lat_p50_ms on quote-hot"},
	{Name: "plansvc.hit_ratio", Unit: "ratio", Better: "higher", Layer: layerSvc, Moves: "ops_per_s on quote-hot (~1) vs quote-cold (~0)"},
	{Name: "plansvc.evictions", Unit: "count", Better: "lower", Layer: layerSvc, Moves: "heap_peak_mb on quote-cold"},
	{Name: "plansvc.overloaded", Unit: "count", Better: "lower", Layer: layerSvc, Moves: "fail_frac on quote-cold"},
	{Name: "plansvc.overhead_ms_p50", Unit: "ms", Better: "lower", Layer: layerSvc, Moves: "lat_p50_ms on quote-cold"},
	{Name: "plan.search_ms_p50", Unit: "ms", Better: "lower", Layer: layerPlan, Moves: "lat_p50_ms, ops_per_s on quote-cold"},
	{Name: "plan.search_ms_p99", Unit: "ms", Better: "lower", Layer: layerPlan, Moves: "lat_tail_ms on quote-cold"},
	{Name: "plan.search_share", Unit: "ratio", Better: "lower", Layer: layerPlan, Moves: "ops_per_s on quote-cold"},
	{Name: "plan.searches_per_op", Unit: "count", Better: "lower", Layer: layerPlan, Moves: "sanity: ~0 on quote-hot, 1 elsewhere"},
	{Name: "plan.enumerated_per_search", Unit: "count", Better: "lower", Layer: layerPlan, Moves: "plan.search_ms_p50 on quote-cold"},
	{Name: "perf.predict_calls_per_search", Unit: "count", Better: "lower", Layer: layerPerf, Moves: "plan.search_ms_p50 on quote-cold"},
	{Name: "profile.ms", Unit: "ms", Better: "lower", Layer: layerProfile, Moves: "setup_s on every workload"},
	{Name: "controller.queue_ms_p50", Unit: "ms", Better: "lower", Layer: layerCtl, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "controller.plan_ms_p50", Unit: "ms", Better: "lower", Layer: layerCtl, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "cloud.provision_ms_p50", Unit: "ms", Better: "lower", Layer: layerCloud, Moves: "lat_p50_ms on jobs-wide"},
	{Name: "cloud.instances_per_job", Unit: "count", Better: "lower", Layer: layerCloud, Moves: "cloud.provision_ms_p50 on jobs-wide"},
	{Name: "ddnnsim.segment_ms_p50", Unit: "ms", Better: "lower", Layer: layerSim, Moves: "lat_p50_ms, ops_per_s on jobs-wide"},
	{Name: "ddnnsim.share", Unit: "ratio", Better: "lower", Layer: layerSim, Moves: "ops_per_s on jobs-wide (high) vs jobs-durable (low)"},
	{Name: "ddnnsim.bsp_worker_iters_per_s", Unit: "iters/s", Better: "higher", Layer: layerSim, Moves: "ops_per_s on jobs-wide"},
	{Name: "ddnnsim.asp_worker_iters_per_s", Unit: "iters/s", Better: "higher", Layer: layerSim, Moves: "ops_per_s on jobs-wide"},
	{Name: "controller.finish_ms_p50", Unit: "ms", Better: "lower", Layer: layerCtl, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "controller.teardown_ms_p50", Unit: "ms", Better: "lower", Layer: layerCtl, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "journal.events_per_op", Unit: "count", Better: "lower", Layer: layerJournal, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "journal.sink_us_p50", Unit: "us", Better: "lower", Layer: layerWAL, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "wal.log_bytes_per_job", Unit: "bytes", Better: "lower", Layer: layerWAL, Moves: "disk_mb, restart_s on jobs-durable"},
	{Name: "replay.barrier_ms_p50", Unit: "ms", Better: "lower", Layer: layerReplay, Moves: "lat_p50_ms on jobs-durable"},
	{Name: "replay.barrier_ms_p99", Unit: "ms", Better: "lower", Layer: layerReplay, Moves: "lat_tail_ms on jobs-durable"},
	{Name: "replay.barriers_per_job", Unit: "count", Better: "lower", Layer: layerReplay, Moves: "replay.barrier_share on jobs-durable"},
	{Name: "replay.barrier_share", Unit: "ratio", Better: "lower", Layer: layerReplay, Moves: "ops_per_s on jobs-durable"},
	{Name: "replay.snapshot_kb", Unit: "KB", Better: "lower", Layer: layerReplay, Moves: "replay.barrier_ms_p50, disk_mb on jobs-durable"},
	{Name: "replay.restart_events", Unit: "count", Better: "lower", Layer: layerReplay, Moves: "restart_s on jobs-durable"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower", Layer: layerRuntime, Moves: "ops_per_s on jobs-wide, quote-hot"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Layer: layerRuntime, Moves: "lat_tail_ms on jobs-wide, quote-hot"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: layerBench, Moves: "none: the cost of tracing"},
}

// plainLayerMetrics are the per-layer metrics taken from untraced
// repetitions: the runtime's own counters, which tracing would perturb.
var plainLayerMetrics = map[string]bool{
	"runtime.alloc_kb_per_op": true,
	"runtime.gc_cpu_frac":     true,
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
