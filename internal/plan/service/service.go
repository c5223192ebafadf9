// Package service turns the plan engine into planning-as-a-service: a
// long-running, multi-tenant front end over plan.Provisioner.
//
// Each request runs the provisioner's Search on its own goroutine behind
// admission control: at most QueueDepth searches run at once, and one
// more fails at once with ErrOverloaded, which the HTTP layer maps to 429
// + Retry-After. There is no result cache: Algorithm 1's early break
// makes a search ~2 µs and allocation-free, so HTTP and JSON dominate a
// quote (DESIGN.md §11 has the measurements).
//
// A rejected request journals plan.rejected; an admitted one journals
// only the engine's plan.search.start and plan.search.done. An admitted
// search that stops because its request's context ended is counted under
// outcome "canceled", not "error": the caller gave up, nothing failed.
package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

var (
	// ErrOverloaded reports that QueueDepth searches were already in
	// flight and the request was rejected without being planned. Callers
	// should retry after a backoff; the HTTP layer maps it to 429 Too Many
	// Requests + Retry-After.
	ErrOverloaded = errors.New("plan service: overloaded (too many searches in flight)")
	// ErrClosed reports a request against a closed service.
	ErrClosed = errors.New("plan service: closed")
	// errSearchPanicked is what a search is counted as when the
	// provisioner panics instead of returning.
	errSearchPanicked = errors.New("plan service: search panicked")
)

// Config parameterizes a Service. The zero value selects sensible
// defaults throughout.
type Config struct {
	// Provisioner answers every request; defaults to plan.DefaultEngine.
	Provisioner plan.Provisioner
	// Catalog is the default catalog for requests that carry none;
	// defaults to cloud.DefaultCatalog().
	Catalog *cloud.Catalog
	// QueueDepth bounds how many searches may be in flight at once, each
	// on the goroutine of its request; one more is rejected with
	// ErrOverloaded. Defaults to DefaultQueueDepth.
	QueueDepth int
	// Registry receives the service metrics; defaults to obs.Default().
	Registry *obs.Registry
}

// DefaultQueueDepth is the in-flight search bound when Config leaves it 0.
const DefaultQueueDepth = 64

// Stats is a snapshot of the service counters. An admitted request's
// search either returns a plan (Searches), stops because its request's
// context ended (Canceled: the caller gave up, nothing failed), or fails
// (Errors).
type Stats struct {
	Requests   uint64
	Overloaded uint64
	Errors     uint64
	Canceled   uint64
	Searches   uint64
	// Hits and Evictions are always zero: the service has no cache.
	// cmd/cynthiabench still derives its plansvc.hit_ratio and
	// plansvc.evictions metrics from them; they go when those metrics do.
	Hits      uint64
	Evictions uint64
}

// svcMetrics are resolved once: CounterVec.With allocates its arguments.
type svcMetrics struct {
	ok         *obs.Counter
	overloaded *obs.Counter
	errors     *obs.Counter
	canceled   *obs.Counter
	searchSec  *obs.Histogram
	inflight   *obs.Gauge
}

func newSvcMetrics(reg *obs.Registry) svcMetrics {
	outcomes := reg.CounterVec("cynthia_plansvc_requests_total",
		"plan service requests by outcome", "outcome")
	return svcMetrics{
		ok:         outcomes.With("ok"),
		overloaded: outcomes.With("overloaded"),
		errors:     outcomes.With("error"),
		canceled:   outcomes.With("canceled"),
		searchSec: reg.Histogram("cynthia_plansvc_search_seconds",
			"wall time of admitted searches", nil),
		inflight: reg.Gauge("cynthia_plansvc_searches_inflight",
			"searches running on the goroutines of their requests"),
	}
}

// Service is the multi-tenant plan server. Construct with New; the zero
// value is not usable.
type Service struct {
	prov        plan.Provisioner
	catalog     *cloud.Catalog
	maxInFlight int
	m           svcMetrics

	mu       sync.Mutex
	inflight int // searches running
	closed   bool
	stats    Stats
}

// New builds a service. It starts no goroutines.
func New(cfg Config) *Service {
	if cfg.Provisioner == nil {
		cfg.Provisioner = plan.DefaultEngine
	}
	if cfg.Catalog == nil {
		cfg.Catalog = cloud.DefaultCatalog()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	return &Service{
		prov:        cfg.Provisioner,
		catalog:     cfg.Catalog,
		maxInFlight: cfg.QueueDepth,
		m:           newSvcMetrics(reg),
	}
}

// Close makes new requests fail with ErrClosed. Searches already running
// finish on their requests' goroutines.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Plan answers one planning request: once admitted (see the package
// comment), it runs the provisioner's Search on the calling goroutine
// under ctx, so a caller that gives up stops its search. A request
// without a catalog is planned against the service's.
func (s *Service) Plan(ctx context.Context, req plan.Request) (res plan.Result, err error) {
	if req.Catalog == nil {
		req.Catalog = s.catalog
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return plan.Result{}, ErrClosed
	}
	s.stats.Requests++
	if s.inflight >= s.maxInFlight {
		s.stats.Overloaded++
		s.mu.Unlock()
		s.m.overloaded.Inc()
		if jb := req.Journal; jb.Enabled() {
			jb.Emit(journal.PlanRejected, journal.F("reason", "overloaded"))
		}
		return plan.Result{}, ErrOverloaded
	}
	s.inflight++
	s.m.inflight.Set(float64(s.inflight))
	s.mu.Unlock()
	// The slot is released even if the provisioner panics: net/http
	// recovers a handler's panic, which would otherwise leave it taken for
	// good.
	defer s.release(ctx, time.Now(), &err)
	err = errSearchPanicked // replaced when Search returns
	return s.prov.Search(ctx, req)
}

// release frees a finished search's admission slot and counts its
// outcome. A search that failed with its request context's own error
// ended because the caller went away, and is counted as canceled.
func (s *Service) release(ctx context.Context, start time.Time, err *error) {
	s.m.searchSec.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	s.m.inflight.Set(float64(s.inflight))
	switch {
	case *err != nil && ctx.Err() != nil && errors.Is(*err, ctx.Err()):
		s.stats.Canceled++
		s.m.canceled.Inc()
	case *err != nil:
		s.stats.Errors++
		s.m.errors.Inc()
	default:
		s.stats.Searches++
		s.m.ok.Inc()
	}
}
