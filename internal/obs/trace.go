package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
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

// Tracer collects spans and instants, each with explicit timestamps in
// seconds (simulated seconds for the discrete-event simulator, journal
// time for the flight recorder), and exports them as a Chrome trace on
// one microsecond timeline. The zero value is ready to use, and all
// methods are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
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
