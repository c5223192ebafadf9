// Package obs is the repo's observability layer: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, histograms, with
// optional label families) exposed in Prometheus text format and as JSON
// snapshots, and a structured span/event tracer that exports Chrome
// trace_event timelines (chrome://tracing, Perfetto). There is no logger:
// control-plane occurrences go to the flight-recorder journal
// (internal/obs/journal), and failures are returned or counted.
//
// The paper's argument rests on measured quantities — per-iteration time,
// PS NIC/CPU saturation, straggler-induced barrier waits (Eq. 2-7) — and
// this package is how the PS framework, the simulator, the planner, and
// the controller report those quantities about themselves.
//
// Hot-path cost is a single atomic add for counters and gauges and a
// binary search plus two atomic adds for histograms; callers cache the
// collector once and never touch the registry's map on the fast path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates collector families.
type Kind string

// Collector kinds, named after their Prometheus TYPE strings.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets are the default histogram buckets (seconds), matching the
// Prometheus client default: 1 ms to 10 s around typical RPC latencies.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas panic (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative allowed).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets. Bucket i
// counts observations <= bounds[i]; one implicit +Inf bucket catches the
// rest.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, the last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: observations equal to an upper bound belong to
	// that bucket (Prometheus "le" semantics).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates so cumulative exposition stays well formed.
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, buckets: make([]atomic.Int64, len(uniq)+1)}
}

// family is one named collector family; unlabeled families hold a single
// metric under the empty key.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu      sync.RWMutex
	metrics map[string]any // label-values key -> *Counter/*Gauge/*Histogram
}

func (f *family) get(key string, make func() any) any {
	f.mu.RLock()
	m, ok := f.metrics[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.metrics[key]; ok {
		return m
	}
	m = make()
	f.metrics[key] = m
	return m
}

// sortedKeys returns the family's child keys sorted lexicographically by
// label values, so exposition and snapshots are deterministic regardless
// of creation order.
func (f *family) sortedKeys() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.metrics))
	for k := range f.metrics {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry or Default. Collector lookups are get-or-create: asking for
// an existing name with a matching kind and label arity returns the same
// collector, so independent components can share one registry safely.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by components that are
// not handed an explicit one.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{name: name, help: help, kind: kind,
				labels:  append([]string(nil), labels...),
				bounds:  append([]float64(nil), bounds...),
				metrics: make(map[string]any)}
			r.families[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: %s registered with labels %v, requested with %v", name, f.labels, labels))
	}
	return f
}

// Counter returns the unlabeled counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	return f.get("", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	return f.get("", func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabeled histogram with the given name. Buckets
// apply on first registration only (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, KindHistogram, nil, buckets)
	return f.get("", func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// CounterVec returns the counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// GaugeVec returns the gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labels, nil)}
}

// HistogramVec returns the histogram family with the given label keys.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.family(name, help, KindHistogram, labels, buckets)}
}

// labelKey serializes label values; \xff never occurs in sane values.
func labelKey(f *family, values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, "\xff")
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(labelKey(v.f, values), func() any { return &Counter{} }).(*Counter)
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(labelKey(v.f, values), func() any { return &Gauge{} }).(*Gauge)
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(labelKey(v.f, values), func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// --- Exposition ---

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatValue renders a float without trailing noise ("1" not "1.000000").
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func labelPairs(keys []string, key string, extra ...string) string {
	var parts []string
	if len(keys) > 0 {
		values := strings.Split(key, "\xff")
		for i, k := range keys {
			parts = append(parts, k+`="`+escapeLabel(values[i])+`"`)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, extra[i]+`="`+escapeLabel(extra[i+1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families in registration order, children sorted by label values
// (deterministic output regardless of creation order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		keys := f.sortedKeys()
		f.mu.RLock()
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.metrics[k]
		}
		f.mu.RUnlock()
		for i, key := range keys {
			switch m := children[i].(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.labels, key), m.Value()); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labels, key), formatValue(m.Value())); err != nil {
					return err
				}
			case *Histogram:
				var cum int64
				for bi, bound := range m.bounds {
					cum += m.buckets[bi].Load()
					le := formatValue(bound)
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, key, "le", le), cum); err != nil {
						return err
					}
				}
				cum += m.buckets[len(m.bounds)].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, key, "le", "+Inf"), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelPairs(f.labels, key), formatValue(m.Sum())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelPairs(f.labels, key), m.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// MetricSnapshot is one child metric in a snapshot.
type MetricSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds the counter or gauge value.
	Value float64 `json:"value,omitempty"`
	// Histogram fields.
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"` // non-cumulative, +Inf last
}

// FamilySnapshot is one family in a snapshot.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    Kind             `json:"kind"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot returns a point-in-time copy of every metric, families sorted
// by name for deterministic output.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		keys := f.sortedKeys()
		f.mu.RLock()
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.metrics[k]
		}
		f.mu.RUnlock()
		for i, key := range keys {
			ms := MetricSnapshot{}
			if len(f.labels) > 0 {
				ms.Labels = make(map[string]string, len(f.labels))
				for li, v := range strings.Split(key, "\xff") {
					ms.Labels[f.labels[li]] = v
				}
			}
			switch m := children[i].(type) {
			case *Counter:
				ms.Value = float64(m.Value())
			case *Gauge:
				ms.Value = m.Value()
			case *Histogram:
				ms.Count = m.Count()
				ms.Sum = m.Sum()
				ms.Bounds = append([]float64(nil), m.bounds...)
				ms.Buckets = make([]int64, len(m.buckets))
				for bi := range m.buckets {
					ms.Buckets[bi] = m.buckets[bi].Load()
				}
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		out = append(out, fs)
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
