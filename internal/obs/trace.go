package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace_event record. Timestamps and durations
// are microseconds, per the trace_event format; chrome://tracing and
// Perfetto open the exported files directly.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects structured spans and instants and exports them as a
// Chrome trace. Timestamps come either from the tracer's clock (wall time
// since construction, for live systems) or are supplied explicitly in
// simulated seconds (for the discrete-event simulator) — both end up on
// the same microsecond timeline.
//
// All methods are safe for concurrent use; each goroutine that wants
// nested Begin/End spans takes its own SpanContext.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
	clock  func() float64 // seconds since some epoch
}

// NewTracer returns a tracer whose clock is wall time measured from now.
func NewTracer() *Tracer {
	start := time.Now()
	return &Tracer{clock: func() float64 { return time.Since(start).Seconds() }}
}

// NewTracerWithClock returns a tracer reading the given clock (seconds).
// Pass the simulation engine's clock to trace simulated timelines.
func NewTracerWithClock(clock func() float64) *Tracer {
	if clock == nil {
		panic("obs: nil tracer clock")
	}
	return &Tracer{clock: clock}
}

// Now returns the tracer clock in seconds.
func (t *Tracer) Now() float64 { return t.clock() }

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

func (t *Tracer) append(e TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Complete records a finished span [startSec, endSec] on the given
// process/thread track with explicit timestamps in seconds.
func (t *Tracer) Complete(pid, tid int, cat, name string, startSec, endSec float64) {
	if endSec < startSec {
		endSec = startSec
	}
	t.append(TraceEvent{Name: name, Cat: cat, Ph: "X",
		Ts: startSec * 1e6, Dur: (endSec - startSec) * 1e6, Pid: pid, Tid: tid})
}

// Instant records a point event at the explicit timestamp in seconds.
func (t *Tracer) Instant(pid, tid int, cat, name string, tsSec float64) {
	t.append(TraceEvent{Name: name, Cat: cat, Ph: "i", Ts: tsSec * 1e6, Pid: pid, Tid: tid,
		Args: map[string]any{"s": "t"}})
}

// ProcessName labels a pid track in the viewer.
func (t *Tracer) ProcessName(pid int, name string) {
	t.append(TraceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

// ThreadName labels a (pid, tid) track in the viewer.
func (t *Tracer) ThreadName(pid, tid int, name string) {
	t.append(TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
}

// SpanContext is one goroutine's (or one simulated track's) handle for
// clock-driven Begin/End spans. A SpanContext must not be shared between
// goroutines; the tracer behind it is safe to share.
type SpanContext struct {
	t        *Tracer
	pid, tid int
}

// Context returns a span context bound to the given track.
func (t *Tracer) Context(pid, tid int) *SpanContext {
	return &SpanContext{t: t, pid: pid, tid: tid}
}

// Span is an open span started by SpanContext.Start.
type Span struct {
	sc    *SpanContext
	cat   string
	name  string
	start float64
}

// Start opens a span at the current tracer clock.
func (sc *SpanContext) Start(cat, name string) Span {
	return Span{sc: sc, cat: cat, name: name, start: sc.t.clock()}
}

// End closes the span at the current tracer clock and records it.
func (s Span) End() {
	sc := s.sc
	sc.t.Complete(sc.pid, sc.tid, s.cat, s.name, s.start, sc.t.clock())
}

// Event records an instant on this context's track at the current clock.
func (sc *SpanContext) Event(cat, name string) {
	sc.t.Instant(sc.pid, sc.tid, cat, name, sc.t.clock())
}

// Events returns a copy of the recorded events sorted by timestamp
// (metadata events first, then stable by record order).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	out := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return out[i].Ts < out[j].Ts
	})
	return out
}

// WriteJSON exports the trace as a JSON array of trace_event objects, one
// per line, sorted by timestamp — valid JSON and openable as-is in
// chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
