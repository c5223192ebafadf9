package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
)

// API exposes the control plane over HTTP, the way the prototype's master
// node would to kubectl-style tooling:
//
//	GET  /healthz             -> "ok"
//	GET  /api/nodes           -> []Node
//	GET  /api/pods?job=...    -> []Pod
//	GET  /api/jobs            -> []Job
//	GET  /api/jobs/{id}       -> Job
//	POST /api/jobs[?wait=...] -> submit {"workload": "...", "deadline_sec": ..., "loss_target": ...}
//	POST /api/plan            -> quote the same payload without provisioning
//
// Submissions run through the controller's bounded workqueue: by default
// the handler waits for the pipeline (profile, plan, provision, train,
// tear down) and returns the finished Job; ?wait=false returns 202 with
// the job ID immediately. A full queue — or an overloaded plan service —
// is 429 with Retry-After; a submission the durable tier could not record
// is 503 with Retry-After. A POST body over maxRequestBody is 413.
// POST /api/plan answers through the plan service's cross-request cache
// and reports how via the X-Cache header (hit, miss, or coalesced).
type API struct {
	master     *Master
	controller *Controller
	plans      *service.Service
	planSeq    atomic.Uint64 // mints trace IDs for untraced quotes
}

// APIOption customizes NewAPI.
type APIOption func(*API)

// WithPlanService substitutes a pre-configured plan service (tests use
// tiny queues to force overload).
func WithPlanService(s *service.Service) APIOption {
	return func(a *API) { a.plans = s }
}

// NewAPI builds the HTTP layer over a master and its controller. Unless
// overridden, it runs a default-sized plan service against the
// controller's live catalog.
func NewAPI(master *Master, controller *Controller, opts ...APIOption) *API {
	a := &API{master: master, controller: controller}
	for _, o := range opts {
		o(a)
	}
	if a.plans == nil {
		a.plans = service.New(service.Config{Catalog: controller.provider.Catalog()})
	}
	return a
}

// PlanService exposes the quote cache (stats, shutdown).
func (a *API) PlanService() *service.Service { return a.plans }

// Drain stops admitting new work and waits for what is already in
// flight: queued jobs finish (bounded by ctx), then the plan service
// shuts down. The server's SIGTERM path calls this after the listener
// closes.
func (a *API) Drain(ctx context.Context) error {
	err := a.controller.DrainQueue(ctx)
	a.plans.Close()
	return err
}

// Handler returns the route table as an http.Handler. GET /metrics serves
// the process-wide registry, where the controller, recovery, plan
// service, provider and replay manager keep their counters.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /api/nodes", a.getNodes)
	mux.HandleFunc("GET /api/pods", a.getPods)
	mux.HandleFunc("GET /api/jobs", a.getJobs)
	mux.HandleFunc("GET /api/jobs/{id}", a.getJob)
	mux.HandleFunc("POST /api/jobs", a.postJob)
	mux.HandleFunc("POST /api/plan", a.postPlan)
	mux.HandleFunc("GET /debug/jobs/{id}/timeline", a.getTimeline)
	mux.HandleFunc("GET /debug/journal", a.getJournal)
	mux.Handle("GET /metrics", obs.PrometheusHandler(obs.Default()))
	return mux
}

// JobRequest is the submission payload.
type JobRequest struct {
	Workload    string  `json:"workload"`
	DeadlineSec float64 `json:"deadline_sec"`
	LossTarget  float64 `json:"loss_target"`
}

// JobResponse is the wire form of a Job.
type JobResponse struct {
	ID           string  `json:"id"`
	TraceID      string  `json:"trace_id,omitempty"`
	Workload     string  `json:"workload"`
	Status       string  `json:"status"`
	InstanceType string  `json:"instance_type,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	PS           int     `json:"ps,omitempty"`
	Iterations   int     `json:"iterations,omitempty"`
	PredTimeSec  float64 `json:"predicted_sec,omitempty"`
	TrainingSec  float64 `json:"training_sec,omitempty"`
	FinalLoss    float64 `json:"final_loss,omitempty"`
	CostUSD      float64 `json:"cost_usd,omitempty"`
	Error        string  `json:"error,omitempty"`
}

func toResponse(j Job) JobResponse {
	resp := JobResponse{
		ID:          j.ID,
		TraceID:     j.TraceID,
		Status:      string(j.Status),
		Iterations:  j.Plan.Iterations,
		Workers:     j.Plan.Workers,
		PS:          j.Plan.PS,
		PredTimeSec: j.Plan.PredTime,
		TrainingSec: j.TrainingTime,
		FinalLoss:   j.FinalLoss,
		CostUSD:     j.Cost,
		Error:       j.Err,
	}
	if j.Workload != nil {
		resp.Workload = j.Workload.Name
	}
	if j.Plan.Type.Name != "" {
		resp.InstanceType = j.Plan.Type.Name
	}
	return resp
}

// writeErrors counts response-write failures: a client gone
// mid-response, or a value that does not serialize.
var (
	apiOnce     sync.Once
	writeErrors *obs.Counter
)

func writeErrorsCounter() *obs.Counter {
	apiOnce.Do(func() {
		writeErrors = obs.Default().Counter("cluster_api_write_errors",
			"HTTP response encode/write failures (client disconnects, serialization errors)")
	})
	return writeErrors
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeErrorsCounter().Inc()
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (a *API) getNodes(w http.ResponseWriter, r *http.Request) {
	type nodeResp struct {
		Name      string `json:"name"`
		Instance  string `json:"instance"`
		Type      string `json:"type"`
		Cores     int    `json:"cores"`
		FreeCores int    `json:"free_cores"`
	}
	var out []nodeResp
	for _, n := range a.master.Nodes() {
		out = append(out, nodeResp{
			Name: n.Name, Instance: n.InstanceID, Type: n.Type.Name,
			Cores: n.Cores, FreeCores: n.FreeCores(),
		})
	}
	if out == nil {
		out = []nodeResp{}
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) getPods(w http.ResponseWriter, r *http.Request) {
	pods := a.master.Pods(r.URL.Query().Get("job"))
	if pods == nil {
		pods = []Pod{}
	}
	writeJSON(w, http.StatusOK, pods)
}

func (a *API) getJobs(w http.ResponseWriter, r *http.Request) {
	jobs := a.controller.Jobs()
	out := make([]JobResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, toResponse(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := a.controller.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(j))
}

// getTimeline reconstructs one job's causal narrative from the flight
// recorder: every correlated event in global order, rendered as JSON
// (default), human-readable text (?format=text), or a Chrome trace
// (?format=chrome) loadable in chrome://tracing or Perfetto.
func (a *API) getTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := a.controller.Job(id); err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	events := a.master.Journal().JobEvents(id)
	tl := journal.BuildTimeline(id, events)
	var err error
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, tl)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = tl.WriteText(w)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		err = tl.WriteChromeTrace(w)
	default:
		writeError(w, http.StatusBadRequest, "bad format %q (want json, text, or chrome)", r.URL.Query().Get("format"))
	}
	if err != nil {
		writeErrorsCounter().Inc()
	}
}

// getJournal streams the flight recorder in its canonical JSONL encoding,
// optionally from a global sequence number (?after=N) and filtered to one
// job (?job=...). The encoding is byte-identical run to run in
// deterministic mode, which is what the golden-corpus replay tests pin.
func (a *API) getJournal(w http.ResponseWriter, r *http.Request) {
	var after uint64
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad after=%q", s)
			return
		}
		after = v
	}
	jobFilter := r.URL.Query().Get("job")
	jrnl := a.master.Journal()
	// The in-memory ring is bounded: if it evicted past the caller's
	// cursor, the gap is unrecoverable here (only the WAL, when enabled,
	// still has it). Surface that instead of silently skipping events.
	if oldest := jrnl.OldestSeq(); oldest > after+1 {
		w.Header().Set("X-Journal-Truncated", strconv.FormatUint(oldest, 10))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	var buf []byte
	for _, e := range jrnl.Since(after) {
		if jobFilter != "" && e.Job != jobFilter {
			continue
		}
		buf = journal.AppendJSONL(buf[:0], e)
		if _, err := w.Write(buf); err != nil {
			writeErrorsCounter().Inc()
			return
		}
	}
}

// maxRequestBody bounds a submission or quote body. A real payload is
// under 200 bytes.
const maxRequestBody = 64 << 10

// decodeJobRequest parses and validates the submission/quote payload.
func decodeJobRequest(w http.ResponseWriter, r *http.Request) (*model.Workload, plan.Goal, error) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, plan.Goal{}, fmt.Errorf("bad request body: %w", err)
	}
	// The body is exactly one object: anything but whitespace after it
	// is rejected rather than silently ignored.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request object")
		}
		return nil, plan.Goal{}, fmt.Errorf("bad request body: %w", err)
	}
	if strings.TrimSpace(req.Workload) == "" {
		return nil, plan.Goal{}, fmt.Errorf("workload is required")
	}
	workload, err := model.WorkloadByName(req.Workload)
	if err != nil {
		return nil, plan.Goal{}, err
	}
	goal := plan.Goal{TimeSec: req.DeadlineSec, LossTarget: req.LossTarget}
	if err := goal.Validate(); err != nil {
		return nil, plan.Goal{}, err
	}
	return workload, goal, nil
}

// decodeStatus is the status for a decodeJobRequest error: 413 for an
// oversized body, 400 for anything else.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (a *API) postJob(w http.ResponseWriter, r *http.Request) {
	workload, goal, err := decodeJobRequest(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), "%v", err)
		return
	}
	wait := true
	if s := r.URL.Query().Get("wait"); s != "" {
		v, perr := strconv.ParseBool(s)
		if perr != nil {
			writeError(w, http.StatusBadRequest, "bad wait=%q (want true or false)", s)
			return
		}
		wait = v
	}
	// The correlation ID is minted at the edge: callers may thread their
	// own through the X-Trace-ID header; otherwise the controller mints a
	// deterministic one from the submission sequence. The submission goes
	// through the controller's bounded workqueue either way — a full
	// queue rejects it here rather than piling waiters on a mutex.
	job, err := a.controller.Enqueue(workload, goal, r.Header.Get("X-Trace-ID"))
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrNotDurable):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !wait {
		snap, _ := a.controller.Job(job.ID)
		writeJSON(w, http.StatusAccepted, toResponse(snap))
		return
	}
	if err := a.controller.Wait(r.Context(), job.ID); err != nil {
		// The client gave up; the job keeps running. Report what we have.
		snap, _ := a.controller.Job(job.ID)
		writeJSON(w, http.StatusAccepted, toResponse(snap))
		return
	}
	snap, _ := a.controller.Job(job.ID)
	if snap.Status == StatusFailed {
		// The job record carries the failure detail.
		writeJSON(w, http.StatusUnprocessableEntity, toResponse(snap))
		return
	}
	writeJSON(w, http.StatusCreated, toResponse(snap))
}

// PlanResponse is the wire form of a quote: the plan the search chose,
// how the cache answered (mirrored in the X-Cache header), and the
// search and service counters behind the answer. search_stats is all
// zeros on cache hits — the quote cost no Theorem 4.1 evaluations.
type PlanResponse struct {
	Workload     string  `json:"workload"`
	InstanceType string  `json:"instance_type"`
	Workers      int     `json:"workers"`
	PS           int     `json:"ps"`
	Iterations   int     `json:"iterations"`
	PredTimeSec  float64 `json:"predicted_sec"`
	CostUSD      float64 `json:"cost_usd"`
	Feasible     bool    `json:"feasible"`
	Cache        string  `json:"cache"`
	Key          string  `json:"key"`
	TraceID      string  `json:"trace_id"`
	SearchStats  struct {
		Types      int `json:"types"`
		Enumerated int `json:"enumerated"`
		Pruned     int `json:"pruned"`
		Feasible   int `json:"feasible"`
	} `json:"search_stats"`
	Service service.Stats `json:"service"`
}

// postPlan quotes a submission without provisioning anything: same
// payload as POST /api/jobs, answered by the plan service (cache,
// coalescing, admission control). Overload is 429 + Retry-After;
// planning failures (e.g. an unreachable loss target) are 422.
func (a *API) postPlan(w http.ResponseWriter, r *http.Request) {
	workload, goal, err := decodeJobRequest(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), "%v", err)
		return
	}
	traceID := r.Header.Get("X-Trace-ID")
	if traceID == "" {
		traceID = fmt.Sprintf("plan-%06d", a.planSeq.Add(1))
	}
	preq, err := a.controller.PlanRequest(workload, goal, traceID)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	res, err := a.plans.Plan(r.Context(), preq)
	if err != nil {
		if errors.Is(err, service.ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := PlanResponse{
		Workload:     workload.Name,
		InstanceType: res.Plan.Type.Name,
		Workers:      res.Plan.Workers,
		PS:           res.Plan.PS,
		Iterations:   res.Plan.Iterations,
		PredTimeSec:  res.Plan.PredTime,
		CostUSD:      res.Plan.Cost,
		Feasible:     res.Plan.Feasible,
		Cache:        string(res.Outcome),
		Key:          res.Key.String(),
		TraceID:      traceID,
		Service:      a.plans.Stats(),
	}
	resp.SearchStats.Types = res.Stats.Types
	resp.SearchStats.Enumerated = res.Stats.Enumerated
	resp.SearchStats.Pruned = res.Stats.Pruned
	resp.SearchStats.Feasible = res.Stats.Feasible
	w.Header().Set("X-Cache", string(res.Outcome))
	w.Header().Set("X-Trace-ID", traceID)
	writeJSON(w, http.StatusOK, resp)
}
