package main

// Tracing through public seams only: a wrapped http.Handler, a timed
// plan.Provisioner/plan.Searcher, a counting perf.Predictor, a timed
// cluster.Checkpointer, and an io.Writer tap as the journal sink. Nothing
// outside this directory is instrumented; the controller, cloud and
// ddnnsim stages come from the wall_ns stamps of the journal lines the
// tap copied.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

// span is one timed interval of one request. Times are Unix nanoseconds,
// the clock the journal stamps wall_ns with.
type span struct {
	Name   string
	Trace  string
	Job    string // barrier spans know only their job until analysis
	Start  int64
	End    int64
	Parent int // index into the trace's span list, -1 for the root
}

// layerOf maps a span name to the layer whose self time it counts toward.
// The handler's self time holds the plan/service hit path too: no public
// seam separates the two.
var layerOf = map[string]string{
	"client":              layerNet,
	"api.handler":         layerEdge + " + " + layerSvc,
	"plan.search":         layerPlan,
	"controller.queue":    layerCtl,
	"controller.plan":     layerCtl,
	"cloud.provision":     layerCloud,
	"controller.launch":   layerCtl,
	"ddnnsim.segment":     layerSim,
	"controller.finish":   layerCtl,
	"controller.teardown": layerCtl,
	"replay.barrier":      layerReplay,
	"journal.sink":        layerWAL,
}

type tracer struct {
	mu         sync.Mutex
	spans      []span
	enumerated int
	searches   int

	predictCalls atomic.Int64
	tap          tap
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler times every request the API serves, keyed by its X-Trace-ID.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now().UnixNano()
		h.ServeHTTP(w, r)
		t.add(span{Name: "api.handler", Trace: r.Header.Get("X-Trace-ID"), Start: start, End: time.Now().UnixNano()})
	})
}

// searcher wraps plan.DefaultEngine; the plan service and the controller
// both plan through it. A search's trace is the one its request's journal
// binding carries.
type searcher struct{ t *tracer }

func (s searcher) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	start := time.Now().UnixNano()
	res, err := plan.DefaultEngine.Search(ctx, req)
	end := time.Now().UnixNano()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{Name: "plan.search", Trace: req.Journal.Trace, Start: start, End: end})
	s.t.searches++
	s.t.enumerated += res.Stats.Enumerated
	s.t.mu.Unlock()
	return res, err
}

func (s searcher) Provision(ctx context.Context, req plan.Request) (plan.Plan, error) {
	return plan.DefaultEngine.Provision(ctx, req)
}

func (s searcher) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	return plan.DefaultEngine.Candidates(ctx, req)
}

// predictor counts calls into perf.Cynthia. It delegates Name because the
// plan cache fingerprints the predictor by name.
type predictor struct {
	t     *tracer
	inner perf.Cynthia
}

func (p predictor) Name() string { return p.inner.Name() }

func (p predictor) IterTime(pr *perf.Profile, c cloud.ClusterSpec) (float64, error) {
	p.t.predictCalls.Add(1)
	return p.inner.IterTime(pr, c)
}

func (p predictor) TrainingTime(pr *perf.Profile, c cloud.ClusterSpec, iters int) (float64, error) {
	p.t.predictCalls.Add(1)
	return p.inner.TrainingTime(pr, c, iters)
}

// checkpointer times every durability barrier of the replay manager.
type checkpointer struct {
	t     *tracer
	inner cluster.Checkpointer
}

func (c checkpointer) Barrier(jobID string, phase cluster.Phase) error {
	start := time.Now().UnixNano()
	err := c.inner.Barrier(jobID, phase)
	c.t.add(span{Name: "replay.barrier", Job: jobID, Start: start, End: time.Now().UnixNano()})
	return err
}

// tap is the journal sink: it forwards each line to the inner sink (the
// replay manager on the durable workload, nothing otherwise), times the
// write, and keeps a copy of the line while recording.
type tap struct {
	inner io.Writer
	on    atomic.Bool
	mu    sync.Mutex
	lines []tapLine
}

type tapLine struct {
	start, end int64
	raw        []byte
}

func (t *tap) Write(p []byte) (int, error) {
	start := time.Now().UnixNano()
	n, err := len(p), error(nil)
	if t.inner != nil {
		n, err = t.inner.Write(p)
	}
	end := time.Now().UnixNano()
	if t.on.Load() {
		t.mu.Lock()
		t.lines = append(t.lines, tapLine{start: start, end: end, raw: append([]byte(nil), p...)})
		t.mu.Unlock()
	}
	return n, err
}

// traceInput is what analysis needs from the measured phase besides the
// tracer's own spans.
type traceInput struct {
	Route    string
	Requests []request
	Answers  []answer
	Ops      int
}

// analysis is the traced repetition's per-layer breakdown.
type analysis struct {
	Metrics map[string]float64
	Layers  []layerRow
	// SelfSum and ClientSum are the per-op means of every span's self time
	// and of the client-observed latency; they agree when the spans nest.
	SelfSumMs   float64
	ClientSumMs float64
	spans       map[string][]span
}

type layerRow struct {
	Layer     string  `json:"layer"`
	SelfMsOp  float64 `json:"self_ms_per_op"`
	Share     float64 `json:"share"`
	SpanCount int     `json:"spans"`
}

// analyze turns the recorded spans and journal lines into per-request span
// trees, self times per layer, and the tracer-derived per-layer metrics.
func (t *tracer) analyze(in traceInput) (*analysis, error) {
	t.tap.mu.Lock()
	lines := t.tap.lines
	t.tap.mu.Unlock()
	t.mu.Lock()
	recorded := append([]span(nil), t.spans...)
	searches, enumerated := t.searches, t.enumerated
	t.mu.Unlock()

	measured := make(map[string]int, len(in.Answers)) // trace -> request index
	for i := range in.Answers {
		measured[traceID(i)] = i
	}
	byTrace := map[string][]span{}
	addSpan := func(s span) {
		if _, ok := measured[s.Trace]; ok && s.End >= s.Start {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	for i, a := range in.Answers {
		addSpan(span{Name: "client", Trace: traceID(i), Start: a.Start, End: a.End})
	}

	// Journal lines: stage boundaries per trace, sink write spans, and the
	// job -> trace map the barrier spans need.
	type stages struct {
		submitted, planning, chosen, provisioned, finished int64
		segStarts, segEnds                                 []int64
		segIters, segWorkers                               []int
		instances                                          int
	}
	st := map[string]*stages{}
	jobTrace := map[string]string{}
	var sinkDur []float64
	sinkBytes := 0
	events := 0
	for _, l := range lines {
		e, err := journal.DecodeEvent(l.raw)
		if err != nil {
			return nil, fmt.Errorf("decoding journal line %q: %w", l.raw, err)
		}
		if e.Trace != "" && e.Job != "" {
			jobTrace[e.Job] = e.Trace
		}
		trace := e.Trace
		if trace == "" {
			trace = jobTrace[e.Job]
		}
		if _, ok := measured[trace]; !ok {
			continue
		}
		events++
		sinkBytes += len(l.raw)
		sinkDur = append(sinkDur, float64(l.end-l.start)/1e3)
		addSpan(span{Name: "journal.sink", Trace: trace, Start: l.start, End: l.end})
		s := st[trace]
		if s == nil {
			s = &stages{}
			st[trace] = s
		}
		switch e.Type {
		case journal.JobSubmitted:
			s.submitted = e.WallNs
		case journal.JobStatus:
			if field(e, "status") == string(cluster.StatusPlanning) && s.planning == 0 {
				s.planning = e.WallNs
			}
		case journal.PlanChosen:
			if s.chosen == 0 {
				s.chosen = e.WallNs
			}
		case journal.JobProvisioned:
			s.provisioned = e.WallNs
		case journal.SegmentStart:
			s.segStarts = append(s.segStarts, e.WallNs)
			s.segWorkers = append(s.segWorkers, atoi(field(e, "workers")))
		case journal.SegmentEnd:
			s.segEnds = append(s.segEnds, e.WallNs)
			s.segIters = append(s.segIters, atoi(field(e, "iterations")))
		case journal.JobFinished:
			s.finished = e.WallNs
		case journal.InstanceLaunched:
			s.instances++
		}
	}
	for _, s := range recorded {
		if s.Trace == "" {
			s.Trace = jobTrace[s.Job]
		}
		addSpan(s)
	}

	var (
		handler, gap, overhead, search                   []float64
		queue, planMs, provision, segment, finish, tdown []float64
		barrier                                          []float64
		segSum, barrierSum, handlerSum, searchSum        float64
		jobLatSum                                        float64
		workerIters                                      = map[bool]float64{}
		workerItersSec                                   = map[bool]float64{}
		jobs, instances                                  int
	)
	ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
	for trace, spans := range byTrace {
		i := measured[trace]
		req, ans := in.Requests[i], in.Answers[i]
		var hStart, hEnd int64
		var searchMs float64
		searched := false
		for _, s := range spans {
			switch s.Name {
			case "api.handler":
				hStart, hEnd = s.Start, s.End
			case "plan.search":
				searchMs += ms(s.Start, s.End)
				searched = true
				search = append(search, ms(s.Start, s.End))
			case "replay.barrier":
				barrier = append(barrier, ms(s.Start, s.End))
				barrierSum += ms(s.Start, s.End)
			}
		}
		if hEnd == 0 {
			continue // the request never reached the handler (transport error)
		}
		h := ms(hStart, hEnd)
		handler = append(handler, h)
		handlerSum += h
		searchSum += searchMs
		gap = append(gap, ms(ans.Start, ans.End)-h)
		if in.Route == routePlan && searched {
			overhead = append(overhead, h-searchMs)
		}
		s := st[trace]
		if in.Route != routeJobs || s == nil || s.finished == 0 {
			continue
		}
		jobs++
		instances += s.instances
		jobLatSum += ms(ans.Start, ans.End)
		stage := func(name string, a, b int64, into *[]float64) {
			if a != 0 && b != 0 {
				*into = append(*into, ms(a, b))
				addSpan(span{Name: name, Trace: trace, Start: a, End: b})
			}
		}
		stage("controller.queue", s.submitted, s.planning, &queue)
		stage("controller.plan", s.planning, s.chosen, &planMs)
		stage("cloud.provision", s.chosen, s.provisioned, &provision)
		var launch []float64
		if len(s.segStarts) > 0 {
			stage("controller.launch", s.provisioned, s.segStarts[0], &launch)
		}
		bsp := req.Class.bsp()
		for k := range s.segStarts {
			if k >= len(s.segEnds) {
				break
			}
			d := ms(s.segStarts[k], s.segEnds[k])
			stage("ddnnsim.segment", s.segStarts[k], s.segEnds[k], &segment)
			segSum += d
			wi := float64(s.segIters[k])
			if bsp {
				wi *= float64(s.segWorkers[k]) // a BSP round is one iteration on every worker
			}
			workerIters[bsp] += wi
			workerItersSec[bsp] += d / 1e3
		}
		if n := len(s.segEnds); n > 0 {
			stage("controller.finish", s.segEnds[n-1], s.finished, &finish)
		}
		stage("controller.teardown", s.finished, hEnd, &tdown)
	}

	out := &analysis{Metrics: map[string]float64{}, spans: byTrace}
	m := out.Metrics
	ops := float64(max(in.Ops, 1))
	m["api.handler_ms_p50"] = pct(handler, 50)
	m["api.client_gap_ms_p50"] = pct(gap, 50)
	m["plansvc.overhead_ms_p50"] = pct(overhead, 50)
	m["plan.search_ms_p50"] = pct(search, 50)
	m["plan.search_ms_p99"] = pct(search, 99)
	m["plan.search_share"] = ratio(searchSum, handlerSum)
	m["plan.searches_per_op"] = float64(searches) / ops
	m["plan.enumerated_per_search"] = ratio(float64(enumerated), float64(searches))
	m["perf.predict_calls_per_search"] = ratio(float64(t.predictCalls.Load()), float64(searches))
	m["controller.queue_ms_p50"] = pct(queue, 50)
	m["controller.plan_ms_p50"] = pct(planMs, 50)
	m["cloud.provision_ms_p50"] = pct(provision, 50)
	m["cloud.instances_per_job"] = ratio(float64(instances), float64(jobs))
	m["ddnnsim.segment_ms_p50"] = pct(segment, 50)
	m["ddnnsim.share"] = ratio(segSum, jobLatSum)
	m["ddnnsim.bsp_worker_iters_per_s"] = ratio(workerIters[true], workerItersSec[true])
	m["ddnnsim.asp_worker_iters_per_s"] = ratio(workerIters[false], workerItersSec[false])
	m["controller.finish_ms_p50"] = pct(finish, 50)
	m["controller.teardown_ms_p50"] = pct(tdown, 50)
	m["journal.events_per_op"] = float64(events) / ops
	m["journal.sink_us_p50"] = pct(sinkDur, 50)
	m["wal.log_bytes_per_job"] = float64(sinkBytes) / ops
	m["replay.barrier_ms_p50"] = pct(barrier, 50)
	m["replay.barrier_ms_p99"] = pct(barrier, 99)
	m["replay.barriers_per_job"] = ratio(float64(len(barrier)), float64(jobs))
	m["replay.barrier_share"] = ratio(barrierSum, jobLatSum)

	out.Layers, out.SelfSumMs, out.ClientSumMs = selfTimes(byTrace, ops)
	return out, nil
}

// selfTimes nests each trace's spans by containment and sums, per layer,
// each span's duration minus the part of it its children cover.
func selfTimes(byTrace map[string][]span, ops float64) ([]layerRow, float64, float64) {
	self := map[string]float64{}
	count := map[string]int{}
	var selfSum, clientSum float64
	for trace, spans := range byTrace {
		nest(spans)
		byTrace[trace] = spans
		children := make([][]int, len(spans))
		for i, s := range spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], i)
			}
			if s.Name == "client" {
				clientSum += float64(s.End-s.Start) / 1e6
			}
		}
		for i, s := range spans {
			d := float64(s.End-s.Start)/1e6 - covered(s, spans, children[i])
			self[layerOf[s.Name]] += d
			count[layerOf[s.Name]]++
			selfSum += d
		}
	}
	var rows []layerRow
	for layer, d := range self {
		rows = append(rows, layerRow{Layer: layer, SelfMsOp: d / ops, Share: ratio(d, clientSum), SpanCount: count[layer]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMsOp > rows[j].SelfMsOp })
	return rows, selfSum / ops, clientSum / ops
}

// nest sorts one trace's spans outermost-first and sets each Parent to the
// innermost earlier span still open at its start.
func nest(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End <= spans[i].Start {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// covered is the length in ms of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, spans []span, kids []int) float64 {
	var total, curStart, curEnd int64 = 0, 0, -1
	// kids are in start order because nest sorted the spans.
	for _, k := range kids {
		s, e := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return float64(total) / 1e6
}

// writeChrome writes the spans as a Chrome trace_event file: one complete
// ("X") event per span, one row per request, the trace ID and parent span
// in args.
func (a *analysis) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	traces := make([]string, 0, len(a.spans))
	var origin int64
	for trace, spans := range a.spans {
		traces = append(traces, trace)
		for _, s := range spans {
			if origin == 0 || s.Start < origin {
				origin = s.Start
			}
		}
	}
	sort.Strings(traces)
	var events []event
	for tid, trace := range traces {
		spans := a.spans[trace]
		for _, s := range spans {
			parent := ""
			if s.Parent >= 0 {
				parent = spans[s.Parent].Name
			}
			events = append(events, event{
				Name: s.Name, Cat: layerOf[s.Name], Ph: "X",
				Ts: float64(s.Start-origin) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: 1, Tid: tid,
				Args: map[string]string{"trace": trace, "parent": parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func field(e journal.Event, key string) string {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s) // fields the controller wrote with strconv.Itoa
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceID is the X-Trace-ID the bench sends with measured request i, in
// plain and traced runs alike.
func traceID(i int) string { return fmt.Sprintf("r%06d", i) }
