// Package service turns the plan engine into planning-as-a-service: a
// long-running, multi-tenant front end over plan.Provisioner built for
// absorbing heavy request traffic.
//
// Three mechanisms carry the load:
//
//   - A cross-request result cache keyed on (catalog identity, catalog
//     epoch, workload fingerprint): repeated planning questions skip the
//     Theorem 4.1 scan entirely and are answered from the cached Result —
//     bit-identical to the search that produced it, in well under a
//     microsecond, without allocating. Any catalog mutation bumps the
//     epoch (see cloud.Catalog), making every stale entry unreachable.
//   - Singleflight coalescing: N identical requests arriving while the
//     search is in flight wait on the one running search and all receive
//     its Result. A traffic spike of one hot question costs one scan.
//   - Admission control: a fresh search runs on the goroutine of the
//     request that missed (net/http already gives each request its own),
//     and at most QueueDepth of them run at once. One more is rejected
//     immediately with ErrOverloaded instead of piling onto an unbounded
//     backlog — the HTTP layer maps this to 429 + Retry-After.
//
// The service emits plan.cache.hit/miss/coalesced flight-recorder events
// on the request's journal binding (the one search a coalesced group runs
// carries the first requester's trace ID; its plan.cache.miss always
// precedes the engine's plan.search.* events), and exports hit/miss and
// in-flight metrics on an obs registry.
//
// What the cache buys end to end, measured by cmd/cynthiabench through
// POST /api/plan on a 2-vCPU Xeon VM with perf.Cynthia's allocation-free
// homogeneous search (~45 µs per miss): quote-hot, eight repeated
// questions that all hit, serves a median ≈36.3k quotes/s; quote-cold,
// every request a distinct miss, serves ≈14.9k/s. The cache is worth
// ≈2.4×, above the 1.5× keep-or-delete line. It stays because dropping it
// would cost quote-hot about 60% of its throughput. The service has no
// cache-less mode: quote-cold is the measure of what every request would
// pay without the cache.
package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// ErrOverloaded reports that QueueDepth fresh searches were already in
// flight and the request was rejected without being planned. Callers
// should retry after a backoff; the HTTP layer maps it to 429 Too Many
// Requests + Retry-After.
var ErrOverloaded = errors.New("plan service: overloaded (too many searches in flight)")

// ErrClosed reports a request against a closed service.
var ErrClosed = errors.New("plan service: closed")

// errSearchPanicked is what the waiters on a search get if the
// provisioner panics instead of returning.
var errSearchPanicked = errors.New("plan service: search panicked")

// Outcome classifies how a request was served.
type Outcome string

// Request outcomes, in the wire form the X-Cache header carries.
const (
	// OutcomeHit means the plan was served from the cross-request cache:
	// zero Theorem 4.1 evaluations, bit-identical to the cold search.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss means this request ran (and cached) the search.
	OutcomeMiss Outcome = "miss"
	// OutcomeCoalesced means the request waited on an identical search
	// another request had already started.
	OutcomeCoalesced Outcome = "coalesced"
)

// Key identifies one cacheable planning question: which catalog at which
// mutation epoch, and the fingerprint folding the workload profile, goal,
// sync mode, and predictor (see Fingerprint).
type Key struct {
	CatalogID   uint64
	Epoch       uint64
	Fingerprint uint64
}

// Config parameterizes a Service. The zero value selects sensible
// defaults throughout.
type Config struct {
	// Provisioner answers cache misses; defaults to plan.DefaultEngine.
	Provisioner plan.Provisioner
	// Catalog is the default catalog for requests that carry none;
	// defaults to one shared cloud.DefaultCatalog instance (a fresh
	// catalog per request would never share cache entries).
	Catalog *cloud.Catalog
	// QueueDepth bounds how many fresh searches may be in flight at once,
	// each on the goroutine of the request that missed; one more is
	// rejected with ErrOverloaded. Defaults to DefaultQueueDepth.
	QueueDepth int
	// CacheCapacity bounds the result cache (LRU eviction); defaults to
	// DefaultCacheCapacity.
	CacheCapacity int
	// Registry receives the service metrics; defaults to obs.Default().
	Registry *obs.Registry
}

// DefaultCacheCapacity is the result-cache bound when Config leaves it 0.
const DefaultCacheCapacity = 1024

// DefaultQueueDepth is the in-flight search bound when Config leaves it 0.
const DefaultQueueDepth = 64

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Requests   uint64 `json:"requests"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Coalesced  uint64 `json:"coalesced"`
	Overloaded uint64 `json:"overloaded"`
	Errors     uint64 `json:"errors"`
	Evictions  uint64 `json:"evictions"`
	Searches   uint64 `json:"searches"`
	CacheSize  int    `json:"cache_size"`
}

// Response is one answered planning request: the search product (chosen
// plan, ranked candidates, search stats) plus how it was served.
type Response struct {
	plan.Result
	Outcome Outcome
	Key     Key
}

// entry is one cache slot: a singleflight handle while the search runs,
// a cached result once done is closed.
type entry struct {
	key  Key
	done chan struct{}
	res  plan.Result
	err  error
	elem *list.Element // LRU position, set once cached
}

// svcMetrics are pre-resolved so the hit path stays allocation-free (a
// CounterVec.With call builds a variadic slice).
type svcMetrics struct {
	hits       *obs.Counter
	misses     *obs.Counter
	coalesced  *obs.Counter
	overloaded *obs.Counter
	errors     *obs.Counter
	evictions  *obs.Counter
	searchSec  *obs.Histogram
	inflight   *obs.Gauge
	cacheSize  *obs.Gauge
}

func newSvcMetrics(reg *obs.Registry) *svcMetrics {
	outcomes := reg.CounterVec("cynthia_plansvc_requests_total",
		"plan service requests by outcome", "outcome")
	return &svcMetrics{
		hits:       outcomes.With("hit"),
		misses:     outcomes.With("miss"),
		coalesced:  outcomes.With("coalesced"),
		overloaded: outcomes.With("overloaded"),
		errors:     outcomes.With("error"),
		evictions: reg.Counter("cynthia_plansvc_evictions_total",
			"cache entries evicted by the LRU bound"),
		searchSec: reg.Histogram("cynthia_plansvc_search_seconds",
			"wall time of cache-miss searches", nil),
		inflight: reg.Gauge("cynthia_plansvc_searches_inflight",
			"fresh searches running on the goroutines of the requests that missed"),
		cacheSize: reg.Gauge("cynthia_plansvc_cache_size",
			"entries in the cross-request result cache"),
	}
}

// Service is the multi-tenant plan server. Construct with New; the zero
// value is not usable.
type Service struct {
	prov        plan.Provisioner
	catalog     *cloud.Catalog
	cap         int
	maxInFlight int
	m           *svcMetrics

	mu       sync.Mutex
	entries  map[Key]*entry
	lru      list.List // completed entries, most recent at front
	inflight int       // fresh searches running
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
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{
		prov:        cfg.Provisioner,
		catalog:     cfg.Catalog,
		cap:         cfg.CacheCapacity,
		maxInFlight: cfg.QueueDepth,
		m:           newSvcMetrics(reg),
		entries:     make(map[Key]*entry),
	}
	s.lru.Init()
	return s
}

// Catalog returns the service's default catalog (the one requests without
// their own are planned against, and whose epoch keys the cache).
func (s *Service) Catalog() *cloud.Catalog { return s.catalog }

// Close makes new requests fail with ErrClosed. Searches already running
// finish on their requests' goroutines and still answer their waiters.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheSize = s.lru.Len()
	return st
}

// Plan answers one planning request. The request is normalized (so
// default-valued and explicitly-defaulted requests share cache entries),
// fingerprinted, and served from the cache, an in-flight identical
// search, or a fresh search run on the calling goroutine — see the
// package comment for the full policy. A fresh search runs to completion
// whatever ctx does, because coalesced requests wait on it; ctx bounds
// only the wait on another request's search. The returned Result is
// shared with every other request served from the same entry; treat
// Ranked as read-only.
func (s *Service) Plan(ctx context.Context, req plan.Request) (Response, error) {
	if req.Catalog == nil {
		req.Catalog = s.catalog
	}
	nreq, err := req.Normalize()
	if err != nil {
		return Response{}, err
	}
	key := Key{
		CatalogID:   nreq.Catalog.ID(),
		Epoch:       nreq.Catalog.Epoch(),
		Fingerprint: Fingerprint(nreq),
	}
	jb := nreq.Journal

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{}, ErrClosed
	}
	s.stats.Requests++
	if e, ok := s.entries[key]; ok {
		select {
		case <-e.done:
			// Cached: zero search work, bit-identical shared result.
			s.stats.Hits++
			if e.elem != nil {
				s.lru.MoveToFront(e.elem)
			}
			res := e.res
			// A hit does zero search work for this request; the stats it
			// reports say so (the miss that filled the entry reported the
			// real enumeration counts).
			res.Stats = plan.SearchStats{}
			s.mu.Unlock()
			s.m.hits.Inc()
			if jb.Enabled() {
				jb.Emit(journal.PlanCacheHit,
					journal.F("key", key.String()),
					journal.Fint("enumerated", 0))
			}
			return Response{Result: res, Outcome: OutcomeHit, Key: key}, nil
		default:
			// Identical search in flight: coalesce onto it.
			s.stats.Coalesced++
			s.mu.Unlock()
			s.m.coalesced.Inc()
			if jb.Enabled() {
				jb.Emit(journal.PlanCacheCoalesced, journal.F("key", key.String()))
			}
			return s.wait(ctx, e, OutcomeCoalesced)
		}
	}
	// Miss: admit a fresh search, or reject if too many are in flight.
	if s.inflight >= s.maxInFlight {
		s.stats.Overloaded++
		s.mu.Unlock()
		s.m.overloaded.Inc()
		if jb.Enabled() {
			jb.Emit(journal.PlanRejected, journal.F("reason", "overloaded"))
		}
		return Response{}, ErrOverloaded
	}
	e := &entry{key: key, done: make(chan struct{})}
	s.entries[key] = e
	s.inflight++
	s.m.inflight.Set(float64(s.inflight))
	s.stats.Misses++
	s.mu.Unlock()
	s.m.misses.Inc()
	if jb.Enabled() {
		jb.Emit(journal.PlanCacheMiss, journal.F("key", key.String()))
	}
	s.search(ctx, e, nreq)
	if e.err != nil {
		return Response{}, e.err
	}
	return Response{Result: e.res, Outcome: OutcomeMiss, Key: key}, nil
}

// wait blocks until the entry's search completes or the caller's context
// is cancelled (the search itself keeps running for other waiters).
func (s *Service) wait(ctx context.Context, e *entry, outcome Outcome) (Response, error) {
	select {
	case <-e.done:
		if e.err != nil {
			return Response{}, e.err
		}
		return Response{Result: e.res, Outcome: outcome, Key: e.key}, nil
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// search runs one admitted search and publishes its result, even if the
// provisioner panics (net/http recovers a handler's panic, which would
// otherwise leave the key's waiters blocked and its admission slot taken
// for good). The search does not stop when ctx is cancelled: coalesced
// requests wait on it.
func (s *Service) search(ctx context.Context, e *entry, req plan.Request) {
	defer s.publish(e, time.Now())
	e.err = errSearchPanicked // replaced when Search returns
	e.res, e.err = s.prov.Search(context.WithoutCancel(ctx), req)
}

// publish releases the entry's admission slot and hands its result to the
// waiters: successes are cached (LRU-bounded), failures are published but
// not cached, so the next identical request retries.
func (s *Service) publish(e *entry, start time.Time) {
	s.m.searchSec.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	s.inflight--
	s.m.inflight.Set(float64(s.inflight))
	if e.err == nil {
		s.stats.Searches++
		e.elem = s.lru.PushFront(e)
		for s.lru.Len() > s.cap {
			oldest := s.lru.Back()
			ev := s.lru.Remove(oldest).(*entry)
			delete(s.entries, ev.key)
			s.stats.Evictions++
			s.m.evictions.Inc()
		}
		s.m.cacheSize.Set(float64(s.lru.Len()))
	} else {
		delete(s.entries, e.key)
		s.stats.Errors++
		s.m.errors.Inc()
	}
	s.mu.Unlock()
	close(e.done)
}
